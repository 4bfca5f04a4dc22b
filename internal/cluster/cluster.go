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

// chunkSplit is how many MapChunks chunks each worker gets beyond its even
// share: extra granularity lets the work-stealing scheduler rebalance
// chunks whose per-row cost is skewed (a probe chunk full of heavy-group
// matches, a classify chunk of wide rows).
const chunkSplit = 4

// Chunks returns the number of contiguous chunks MapChunks would use for n
// items: min(chunkSplit·workers, n) on a parallel pool, 1 otherwise. It
// depends only on (n, workers), never on scheduling, so callers can
// pre-allocate per-chunk outputs.
func (p *Pool) Chunks(n int) int {
	if p.workers == 1 || n <= 1 {
		return 1
	}
	c := p.workers * chunkSplit
	if c > n {
		c = n
	}
	return c
}

// MapChunks splits [0, n) into Chunks(n) contiguous index ranges of
// near-equal size and runs fn(chunk, lo, hi) for each on the pool. Because
// the chunk boundaries are a pure function of (n, workers), a caller that
// writes each chunk's results into its own slot and concatenates the slots
// in chunk order obtains output bit-identical to the sequential loop — the
// deterministic shard → ordered merge discipline every parallel operator in
// this repository follows.
func (p *Pool) MapChunks(n int, fn func(chunk, lo, hi int)) {
	if n <= 0 {
		return
	}
	c := p.Chunks(n)
	p.Map(c, func(i int) {
		fn(i, i*n/c, (i+1)*n/c)
	})
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
		b := KeyBucket(scratch, p)
		out[b].Tuples = append(out[b].Tuples, t)
	}
	return out
}

// KeyHash is the FNV-1a hash over canonical key bytes (rel.EncodeKeyInto)
// that defines the PartitionByKey placement. Exported so probe-side code
// (partitioned join shipping in internal/core) can route probe rows to the
// same bucket as the build rows they match.
func KeyHash(key []byte) uint64 {
	var h uint64 = 0xcbf29ce484222325
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 0x100000001b3
	}
	return h
}

// KeyBucket maps canonical key bytes to one of p partitions, the shared
// routing function for build-side placement and probe-side shipping.
func KeyBucket(key []byte, p int) int {
	if p <= 1 {
		return 0
	}
	return int(KeyHash(key) % uint64(p))
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
	shuffleBytes    atomic.Int64
	broadcastBytes  atomic.Int64
	spillWritten    atomic.Int64
	spillRead       atomic.Int64
	spillProbeSkips atomic.Int64
	spillBloomSkips atomic.Int64
	wireShuffle     atomic.Int64
	wireBroadcast   atomic.Int64
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

// RecordSpillProbeSkip notes a probe that the per-run min-max key filters
// resolved without touching the spill index or disk: the shard holds spilled
// rows, but no run's key range covers the probed key. The count is a pure
// function of the probe multiset and the (deterministic) spill schedule, so
// it is identical at every worker count.
func (m *Metrics) RecordSpillProbeSkip() {
	if m == nil {
		return
	}
	m.spillProbeSkips.Add(1)
}

// SpillProbeSkips returns how many probes the min-max filters short-circuited.
func (m *Metrics) SpillProbeSkips() int64 { return m.spillProbeSkips.Load() }

// RecordSpillBloomSkip notes a probe that fell inside some run's min-max key
// range but that every covering run's Bloom filter rejected — the sparse
// in-range miss the min-max filters cannot catch. Like the min-max skips,
// the count is a pure function of the probe multiset and the deterministic
// spill schedule, so it is identical at every worker count.
func (m *Metrics) RecordSpillBloomSkip() {
	if m == nil {
		return
	}
	m.spillBloomSkips.Add(1)
}

// SpillBloomSkips returns how many probes the per-run Bloom filters
// short-circuited after the min-max filters passed.
func (m *Metrics) SpillBloomSkips() int64 { return m.spillBloomSkips.Load() }

// RecordWireShuffle notes bytes actually measured on a transport connection
// carrying partition results toward the coordinator (the distributed
// analogue of shuffle traffic). Unlike the modeled Record*Bytes counters,
// wire counters report what a real deployment shipped, frame headers
// included.
func (m *Metrics) RecordWireShuffle(n int) {
	if m == nil || n <= 0 {
		return
	}
	m.wireShuffle.Add(int64(n))
}

// RecordWireBroadcast notes measured bytes fanning out from the coordinator
// to workers (setup, batch control, merged results).
func (m *Metrics) RecordWireBroadcast(n int) {
	if m == nil || n <= 0 {
		return
	}
	m.wireBroadcast.Add(int64(n))
}

// WireShuffleBytes returns measured worker-to-coordinator wire bytes.
func (m *Metrics) WireShuffleBytes() int64 { return m.wireShuffle.Load() }

// WireBroadcastBytes returns measured coordinator-to-worker wire bytes.
func (m *Metrics) WireBroadcastBytes() int64 { return m.wireBroadcast.Load() }

// SpillBytesWritten returns total bytes written to spill files.
func (m *Metrics) SpillBytesWritten() int64 { return m.spillWritten.Load() }

// SpillBytesRead returns total bytes read back from spill files.
func (m *Metrics) SpillBytesRead() int64 { return m.spillRead.Load() }

// ShuffleBytes returns total shuffled bytes.
func (m *Metrics) ShuffleBytes() int64 { return m.shuffleBytes.Load() }

// BroadcastBytes returns total broadcast bytes.
func (m *Metrics) BroadcastBytes() int64 { return m.broadcastBytes.Load() }

// Reset zeroes the counters.
func (m *Metrics) Reset() {
	m.shuffleBytes.Store(0)
	m.broadcastBytes.Store(0)
	m.spillWritten.Store(0)
	m.spillRead.Store(0)
	m.spillProbeSkips.Store(0)
	m.spillBloomSkips.Store(0)
	m.wireShuffle.Store(0)
	m.wireBroadcast.Store(0)
}
