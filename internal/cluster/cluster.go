// Package cluster is the execution substrate standing in for the paper's
// Spark deployment (20 r3.2xlarge machines): an in-process partitioned
// runtime with a worker pool, data partitioning utilities (including the
// random pre-shuffle tool of Section 2), and exchange accounting that
// records how many bytes a real deployment would ship over the network —
// the "data shipped at query time" metric of Figures 9(c) and 10(d).
//
// The algorithms in internal/core do not depend on real network transport:
// operator state, delta updates and lineage are machine-local concepts in
// the mini-batch model (Section 7), so a faithful single-process runtime
// preserves every behaviour the evaluation measures except absolute wall
// clock.
package cluster

import (
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"

	"iolap/internal/rel"
)

// Pool is a bounded worker pool for partition-parallel execution.
type Pool struct {
	workers int
}

// NewPool returns a pool with the given parallelism; n <= 0 selects
// GOMAXPROCS.
func NewPool(n int) *Pool {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	return &Pool{workers: n}
}

// Workers returns the parallelism; a nil pool is the inline pool of one.
func (p *Pool) Workers() int {
	if p == nil {
		return 1
	}
	return p.workers
}

// The pool's scheduler is one loop, claim: a call cuts its index space into
// contiguous chunks, starts min(workers, chunks) goroutines, and each claims
// the next chunk index from one shared counter until none are left. Every
// chunk is an independent, deterministic unit whose outputs land in
// caller-owned slots, so the claim order moves execution, never a result —
// the bit-identical-at-any-worker-count invariant of DESIGN.md §7. Balance
// comes from the cuts: there are several per worker, and MapSized's carry
// near-equal cost, so a worker that drew a heavy chunk simply claims fewer.

// Granularity: Map and MapSized cut at most chunksPerWorker chunks per
// worker, Span and CollectSpan chunkSplit — enough claims to even out skewed
// chunk costs (a heavy group, a probe chunk full of matches), few enough
// that claiming stays a rounding error beside the work.
const (
	chunksPerWorker = 8
	chunkSplit      = 4
)

// chunk is a half-open range of task indices.
type chunk struct{ lo, hi int }

// claim runs task(i) for every i in [0, c) on min(w, c) goroutines, each
// taking the next index from one counter. The first panic stops further
// claims and is re-raised on the caller after every goroutine has returned,
// so a panicking chunk can neither deadlock the pool nor kill the process
// from a worker goroutine. A single goroutine's worth runs inline.
func claim(w, c int, task func(i int)) {
	if w = min(w, c); w <= 1 {
		for i := 0; i < c; i++ {
			task(i)
		}
		return
	}
	var s struct {
		next   atomic.Int64
		wg     sync.WaitGroup
		failed atomic.Bool
		val    interface{}
	}
	work := func() {
		defer s.wg.Done()
		defer func() {
			if r := recover(); r != nil {
				s.next.Store(int64(c))
				if s.failed.CompareAndSwap(false, true) {
					s.val = r
				}
			}
		}()
		for i := int(s.next.Add(1)) - 1; i < c; i = int(s.next.Add(1)) - 1 {
			task(i)
		}
	}
	s.wg.Add(w)
	for g := 0; g < w; g++ {
		go work()
	}
	s.wg.Wait()
	if s.failed.Load() {
		panic(s.val)
	}
}

// Map runs fn(i) for i in [0, n) on the pool and blocks until all complete.
// Execution order is unspecified; callers must make fn(i) independent of
// scheduling (every call site in this repository writes to slot i or an
// owned shard). If fn panics, the first panic is re-raised on the caller's
// goroutine after all workers have stopped. A nil pool runs fn inline, in
// index order.
func (p *Pool) Map(n int, fn func(i int)) {
	if p == nil || p.workers == 1 || n <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	c := chunkCount(n, p.workers, chunksPerWorker)
	claim(p.workers, c, func(k int) {
		for i := k * n / c; i < (k+1)*n/c; i++ {
			fn(i)
		}
	})
}

// MapSized runs fn(i) for i in [0, n) like Map, but cuts the index space by
// per-task size hints (arbitrary non-negative cost units, e.g. row counts)
// instead of by count: cuts follow the size prefix sums (sizedCuts), so a
// zipf-distributed tail packs evenly. The hints affect scheduling only —
// results are identical to Map for any hint function.
func (p *Pool) MapSized(n int, size func(i int) int, fn func(i int)) {
	var cuts []chunk
	if p != nil && p.workers > 1 && n > 1 {
		sizes := make([]int, n)
		for i := range sizes {
			sizes[i] = max(size(i), 0)
		}
		cuts = sizedCuts(sizes, min(p.workers, n))
	}
	if cuts == nil {
		p.Map(n, fn)
		return
	}
	claim(p.workers, len(cuts), func(k int) {
		for i := cuts[k].lo; i < cuts[k].hi; i++ {
			fn(i)
		}
	})
}

// sizedCuts cuts [0, len(sizes)) wherever the cumulative size reaches a
// budget of total / (w · chunksPerWorker), so cuts carry near-equal cost and
// a task heavier than the budget is a cut of its own; nil when every size is
// zero. A pure function of its inputs: the placement analysis of
// skew_bench_test.go list-schedules exactly these cuts.
func sizedCuts(sizes []int, w int) []chunk {
	total := 0
	for _, s := range sizes {
		total += s
	}
	if total == 0 {
		return nil
	}
	budget := 1 // total/(w·chunksPerWorker) + 1, without the product
	if w <= total/chunksPerWorker {
		budget = total/(w*chunksPerWorker) + 1
	}
	var cuts []chunk
	acc, lo := 0, 0
	for i, s := range sizes {
		acc += s
		if acc >= budget {
			cuts = append(cuts, chunk{lo, i + 1})
			lo, acc = i+1, 0
		}
	}
	if lo < len(sizes) {
		cuts = append(cuts, chunk{lo, len(sizes)})
	}
	return cuts
}

// Chunks returns the number of contiguous chunks Span and CollectSpan cut n
// items into: min(chunkSplit·workers, n) on a parallel pool, 1 otherwise. It
// depends only on (n, workers), never on scheduling, so callers can
// pre-allocate per-chunk outputs.
func (p *Pool) Chunks(n int) int {
	if p.workers == 1 || n <= 1 {
		return 1
	}
	return chunkCount(n, p.workers, chunkSplit)
}

// chunkCount is min(n, workers·per) for a positive per, without the product:
// a worker count near the int range would wrap it, and a wrapped count cuts
// fewer chunks than tasks, or none.
func chunkCount(n, workers, per int) int {
	if workers > n/per {
		return n
	}
	return workers * per
}

// PartitionByKey splits a relation into p partitions by hashing the given
// key columns, the placement a distributed shuffle would produce.
func PartitionByKey(r *rel.Relation, keys []int, p int) []*rel.Relation {
	if p <= 0 {
		p = 1
	}
	out := make([]*rel.Relation, p)
	for i := range out {
		out[i] = rel.NewRelation(r.Schema)
	}
	var scratch []byte
	for _, t := range r.Tuples {
		scratch = rel.EncodeKeyInto(scratch[:0], t.Vals, keys)
		b := keyBucket(scratch, p)
		out[b].Tuples = append(out[b].Tuples, t)
	}
	return out
}

// keyBucket maps canonical key bytes (rel.EncodeKeyInto) to one of p
// partitions by their FNV-1a hash: the PartitionByKey placement.
func keyBucket(key []byte, p int) int {
	if p <= 1 {
		return 0
	}
	var h uint64 = 0xcbf29ce484222325
	for _, b := range key {
		h ^= uint64(b)
		h *= 0x100000001b3
	}
	return int(h % uint64(p))
}

// Shuffle returns a deterministic pseudo-random permutation of the
// relation's tuples — the pre-processing tool the paper offers when block
// randomness does not hold (Section 2: "iOLAP also provides data
// pre-processing tools to randomly shuffle the entire input dataset").
func Shuffle(r *rel.Relation, seed uint64) *rel.Relation {
	out := rel.NewRelation(r.Schema)
	out.Tuples = make([]rel.Tuple, len(r.Tuples))
	copy(out.Tuples, r.Tuples)
	// Fisher-Yates with a SplitMix64-derived stream.
	state := seed
	nextU64 := func() uint64 {
		state += 0x9e3779b97f4a7c15
		z := state
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	// Unbiased bounded sampling (Lemire's multiply-with-rejection): a plain
	// nextU64()%n favours small residues when n does not divide 2^64. The
	// rejection zone is [0, 2^64 mod n), hit with probability < n/2^64, so
	// retries are vanishingly rare for realistic relation sizes.
	boundedU64 := func(n uint64) uint64 {
		hi, lo := bits.Mul64(nextU64(), n)
		if lo < n {
			thresh := -n % n
			for lo < thresh {
				hi, lo = bits.Mul64(nextU64(), n)
			}
		}
		return hi
	}
	for i := len(out.Tuples) - 1; i > 0; i-- {
		j := int(boundedU64(uint64(i + 1)))
		out.Tuples[i], out.Tuples[j] = out.Tuples[j], out.Tuples[i]
	}
	return out
}

// Metrics accumulates exchange traffic in bytes. All methods are safe for
// concurrent use; recording nothing (n <= 0) is a no-op.
type Metrics struct {
	shuffleBytes   atomic.Int64
	broadcastBytes atomic.Int64
	spillWritten   atomic.Int64
	spillRead      atomic.Int64
}

// RecordShuffleBytes notes bytes that a hash repartition would ship.
func (m *Metrics) RecordShuffleBytes(n int) {
	if m == nil || n <= 0 {
		return
	}
	m.shuffleBytes.Add(int64(n))
}

// RecordBroadcastBytes notes bytes that a broadcast join would replicate to
// every worker (counted once; the per-worker fan-out is a constant factor).
func (m *Metrics) RecordBroadcastBytes(n int) {
	if m == nil || n <= 0 {
		return
	}
	m.broadcastBytes.Add(int64(n))
}

// RecordSpillWrite notes bytes written to spill files when join state is
// evicted under memory pressure. Spill traffic is local disk I/O, not
// exchange.
func (m *Metrics) RecordSpillWrite(n int) {
	if m == nil || n <= 0 {
		return
	}
	m.spillWritten.Add(int64(n))
}

// RecordSpillRead notes bytes read back from spill files by probes.
func (m *Metrics) RecordSpillRead(n int) {
	if m == nil || n <= 0 {
		return
	}
	m.spillRead.Add(int64(n))
}

// SpillBytesWritten returns total bytes written to spill files.
func (m *Metrics) SpillBytesWritten() int64 { return m.spillWritten.Load() }

// SpillBytesRead returns total bytes read back from spill files.
func (m *Metrics) SpillBytesRead() int64 { return m.spillRead.Load() }

// ShuffleBytes returns total shuffled bytes.
func (m *Metrics) ShuffleBytes() int64 { return m.shuffleBytes.Load() }

// BroadcastBytes returns total broadcast bytes.
func (m *Metrics) BroadcastBytes() int64 { return m.broadcastBytes.Load() }
