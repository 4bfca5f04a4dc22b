package cluster

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// This file implements the Pool's scheduler: a chunked, deque-based
// work-stealing loop replacing the PR-1 atomic-counter fan-out. Tasks are
// grouped into contiguous chunks; each worker owns a deque of chunks seeded
// with a contiguous share of the index space and pops from the front in
// order (cache-friendly sequential walks), while idle workers steal the back
// half of a victim's deque. Because every chunk is an independent,
// deterministic unit of work whose outputs land in caller-owned slots keyed
// by index, stealing reorders only *execution*, never the merge — the
// bit-identical-at-any-worker-count invariant of DESIGN.md §7 is untouched.
//
// Two scheduling pathologies of the atomic counter motivated the change:
//
//   - contention: with per-index dispatch every worker hammers one shared
//     cache line; tiny tasks (scan weight derivation, sink emits) spend more
//     time in the CAS loop than in fn.
//   - skew: call sites that fan out over a handful of ownership units (hash
//     store shards, per-group folds) see one heavy unit pin a worker while
//     the counter hands the idle workers nothing — there is nothing left to
//     hand out. Size-hinted chunking (MapSized) packs the initial deques by
//     measured unit cost, and stealing rebalances whatever the hints missed.

// chunk is a half-open range of task indices owned by one worker at a time.
type chunk struct{ lo, hi int }

// deque is one worker's chunk queue. The owner pops from the front; thieves
// take the back half. A plain mutex suffices: pops are per-chunk (not
// per-index), so the lock is touched a few dozen times per Map call.
type deque struct {
	mu     sync.Mutex
	chunks []chunk
	head   int
}

// popFront removes the front chunk (owner side).
func (d *deque) popFront() (chunk, bool) {
	d.mu.Lock()
	if d.head >= len(d.chunks) {
		d.mu.Unlock()
		return chunk{}, false
	}
	c := d.chunks[d.head]
	d.head++
	d.mu.Unlock()
	return c, true
}

// stealBack removes the back half (rounded up) of the deque (thief side).
// The caller deposits the surplus into its own deque afterwards; the two
// locks are never held together, so steal chains cannot deadlock.
func (d *deque) stealBack() []chunk {
	d.mu.Lock()
	avail := len(d.chunks) - d.head
	if avail <= 0 {
		d.mu.Unlock()
		return nil
	}
	take := (avail + 1) / 2
	stolen := d.chunks[len(d.chunks)-take:]
	d.chunks = d.chunks[:len(d.chunks)-take]
	d.mu.Unlock()
	return stolen
}

// deposit replaces the deque contents with the given chunks (thief side;
// called only when the deque is empty).
func (d *deque) deposit(cs []chunk) {
	d.mu.Lock()
	d.chunks = cs
	d.head = 0
	d.mu.Unlock()
}

// Scheduler tuning. chunksPerWorker bounds dispatch overhead (a worker
// takes its fair share in ~chunksPerWorker pops when nothing is stolen)
// while leaving enough granularity for thieves to rebalance skew.
// stealSpins bounds the busy rescan of a worker that sees queued work it
// cannot reach (chunks in transit between deques) before it parks.
const (
	chunksPerWorker = 8
	stealSpins      = 64
	parkDelay       = 20 * time.Microsecond
)

// runSteal executes every chunk in assign exactly once on len(assign)
// workers. assign[g] seeds worker g's deque; queued is the total chunk
// count. A worker whose deque runs dry scans the other deques in ring order
// and steals the back half of the first non-empty victim; when the global
// queued count hits zero no stealable work can ever appear again (chunks
// move between deques but are never created), so the worker exits. A panic
// in fn aborts the remaining chunks and is re-raised on the caller's
// goroutine after all workers have stopped.
func runSteal(assign [][]chunk, run func(lo, hi int)) {
	w := len(assign)
	deques := make([]*deque, w)
	var queued atomic.Int64
	for g := range deques {
		deques[g] = &deque{chunks: assign[g]}
		queued.Add(int64(len(assign[g])))
	}
	var (
		wg       sync.WaitGroup
		aborted  atomic.Bool
		panicked atomic.Bool
		panicVal interface{}
	)
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func(g int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					// First panic wins; the value is re-raised by the
					// caller so a panicking partition can neither deadlock
					// the pool nor die silently on its own goroutine.
					if panicked.CompareAndSwap(false, true) {
						panicVal = r
					}
					aborted.Store(true)
				}
			}()
			self := deques[g]
			for !aborted.Load() {
				c, ok := self.popFront()
				if !ok {
					c, ok = steal(deques, g, self, &queued, &aborted)
					if !ok {
						return
					}
				}
				queued.Add(-1)
				run(c.lo, c.hi)
			}
		}(g)
	}
	wg.Wait()
	if panicked.Load() {
		panic(panicVal)
	}
}

// steal finds work for worker g: it scans the other deques in ring order,
// takes the back half of the first non-empty victim, keeps the first stolen
// chunk for itself and deposits the rest locally. It spins (bounded) while
// queued work is in transit between deques, then parks briefly; it returns
// ok=false once no queued work remains anywhere.
func steal(deques []*deque, g int, self *deque, queued *atomic.Int64, aborted *atomic.Bool) (chunk, bool) {
	w := len(deques)
	for spins := 0; ; spins++ {
		if queued.Load() == 0 || aborted.Load() {
			return chunk{}, false
		}
		for k := 1; k < w; k++ {
			if stolen := deques[(g+k)%w].stealBack(); len(stolen) > 0 {
				if len(stolen) > 1 {
					self.deposit(stolen[1:])
				}
				return stolen[0], true
			}
		}
		if spins < stealSpins {
			runtime.Gosched()
		} else {
			time.Sleep(parkDelay)
		}
	}
}

// evenChunks splits [0, n) into per-worker chunk lists: worker g's deque is
// seeded with the contiguous range [g·n/w, (g+1)·n/w), cut into up to
// chunksPerWorker chunks. Pure function of (n, w).
func evenChunks(n, w int) [][]chunk {
	assign := make([][]chunk, w)
	for g := 0; g < w; g++ {
		lo, hi := g*n/w, (g+1)*n/w
		assign[g] = cutRange(lo, hi, chunksPerWorker)
	}
	return assign
}

// cutRange splits [lo, hi) into at most parts near-equal chunks.
func cutRange(lo, hi, parts int) []chunk {
	n := hi - lo
	if n <= 0 {
		return nil
	}
	if parts > n {
		parts = n
	}
	out := make([]chunk, 0, parts)
	for i := 0; i < parts; i++ {
		out = append(out, chunk{lo + i*n/parts, lo + (i+1)*n/parts})
	}
	return out
}

// Map runs fn(i) for i in [0, n) on the pool and blocks until all complete.
// Execution order is unspecified; callers must make fn(i) independent of
// scheduling (every call site in this repository writes to slot i or an
// owned shard). If fn panics, the first panic is re-raised on the caller's
// goroutine after all workers have stopped.
func (p *Pool) Map(n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if p.workers == 1 || n == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	w := p.workers
	if w > n {
		w = n
	}
	runSteal(evenChunks(n, w), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			fn(i)
		}
	})
}

// MapSized runs fn(i) for i in [0, n) like Map, but seeds the initial
// distribution from per-task size hints (arbitrary non-negative cost units,
// e.g. row counts): worker boundaries follow the size prefix sums instead of
// the index space, and a task heavier than a fair chunk becomes its own
// chunk so a thief can pick off its siblings. The hints affect scheduling
// only — results are identical to Map for any hint function.
func (p *Pool) MapSized(n int, size func(i int) int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if p.workers == 1 || n == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	w := p.workers
	if w > n {
		w = n
	}
	total := 0
	sizes := make([]int, n)
	for i := 0; i < n; i++ {
		s := size(i)
		if s < 0 {
			s = 0
		}
		sizes[i] = s
		total += s
	}
	if total == 0 {
		runSteal(evenChunks(n, w), func(lo, hi int) {
			for i := lo; i < hi; i++ {
				fn(i)
			}
		})
		return
	}
	runSteal(sizedAssign(n, w, sizes, total), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			fn(i)
		}
	})
}

// sizedAssign seeds per-worker deques from size hints: the index space is
// cut wherever the cumulative size crosses a chunk budget
// (total / (w · chunksPerWorker)), so chunks carry near-equal cost, and each
// worker is seeded with a contiguous run of chunks of near-equal cumulative
// cost. Pure function of its inputs — the placement analysis of
// skew_bench_test.go relies on reproducing exactly the seeding MapSized uses.
func sizedAssign(n, w int, sizes []int, total int) [][]chunk {
	budget := total/(w*chunksPerWorker) + 1
	var cuts []chunk
	acc, lo := 0, 0
	for i := 0; i < n; i++ {
		acc += sizes[i]
		if acc >= budget {
			cuts = append(cuts, chunk{lo, i + 1})
			lo, acc = i+1, 0
		}
	}
	if lo < n {
		cuts = append(cuts, chunk{lo, n})
	}
	assign := make([][]chunk, w)
	share := total/w + 1
	acc, g := 0, 0
	for _, c := range cuts {
		assign[g] = append(assign[g], c)
		for i := c.lo; i < c.hi; i++ {
			acc += sizes[i]
		}
		if acc >= share && g < w-1 {
			g, acc = g+1, 0
		}
	}
	return assign
}

// String implements fmt.Stringer for debugging.
func (c chunk) String() string { return fmt.Sprintf("[%d,%d)", c.lo, c.hi) }
