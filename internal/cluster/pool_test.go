package cluster

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// ---------------------------------------------------------------------------
// Chunk-claiming scheduler

// sizesUnderTest are the task counts every entry point is checked at: the
// edges, one either side of Map's chunksPerWorker·w cut count, and a range
// large enough that every goroutine claims many chunks.
func sizesUnderTest(workers int) []int {
	return []int{0, 1, 2, 7, 100, 1000, 8*workers - 1, 8*workers + 1, 10_000}
}

// TestMapRunsEachIndexOnce checks exactly-once execution through every
// chunked entry point: Map, Span and CollectSpan, whose concatenation must
// also come back in index order.
func TestMapRunsEachIndexOnce(t *testing.T) {
	entries := map[string]func(t *testing.T, p *Pool, n int, run func(i int)){
		"Map": func(_ *testing.T, p *Pool, n int, run func(i int)) { p.Map(n, run) },
		"Span": func(_ *testing.T, p *Pool, n int, run func(i int)) {
			p.Span(n, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					run(i)
				}
			})
		},
		"CollectSpan": func(t *testing.T, p *Pool, n int, run func(i int)) {
			got := CollectSpan(p, n, func(lo, hi int) []int {
				var out []int
				for i := lo; i < hi; i++ {
					run(i)
					out = append(out, i)
				}
				return out
			})
			if len(got) != n {
				t.Fatalf("workers=%d: CollectSpan returned %d results, want %d", p.Workers(), len(got), n)
			}
			for i, v := range got {
				if v != i {
					t.Fatalf("workers=%d n=%d: CollectSpan result %d holds %d: chunks out of order", p.Workers(), n, i, v)
				}
			}
		},
	}
	for name, entry := range entries {
		for _, workers := range []int{1, 2, 3, 8, 16} {
			for _, n := range sizesUnderTest(workers) {
				p := NewPool(workers)
				counts := make([]atomic.Int32, n)
				entry(t, p, n, func(i int) { counts[i].Add(1) })
				for i := range counts {
					if got := counts[i].Load(); got != 1 {
						t.Fatalf("%s workers=%d n=%d: index %d ran %d times", name, workers, n, i, got)
					}
				}
			}
		}
	}
}

func TestMapSizedRunsEachIndexOnce(t *testing.T) {
	hints := map[string]func(n int) func(i int) int{
		"uniform":  func(int) func(int) int { return func(int) int { return 1 } },
		"zero":     func(int) func(int) int { return func(int) int { return 0 } },
		"negative": func(int) func(int) int { return func(int) int { return -5 } },
		// One task dwarfs the rest: the cuts must still cover every index.
		"skewed": func(int) func(int) int {
			return func(i int) int {
				if i == 3 {
					return 1 << 20
				}
				return 1
			}
		},
		// One task holds 90% of the total size.
		"ninety": func(n int) func(int) int {
			return func(i int) int {
				if i == n/2 {
					return 9 * (n - 1)
				}
				return 1
			}
		},
		"ramp": func(int) func(int) int { return func(i int) int { return i } },
	}
	for name, hint := range hints {
		for _, workers := range []int{1, 2, 3, 8} {
			for _, n := range sizesUnderTest(workers) {
				size := hint(n)
				p := NewPool(workers)
				counts := make([]atomic.Int32, n)
				p.MapSized(n, size, func(i int) { counts[i].Add(1) })
				for i := range counts {
					if got := counts[i].Load(); got != 1 {
						t.Fatalf("hint=%s workers=%d n=%d: index %d ran %d times", name, workers, n, i, got)
					}
				}
				// The cuts MapSized claims tile [0, n) in order.
				sizes := make([]int, n)
				for i := range sizes {
					sizes[i] = max(size(i), 0)
				}
				next := 0
				for _, c := range sizedCuts(sizes, max(min(workers, n), 1)) {
					if c.lo != next || c.hi <= c.lo {
						t.Fatalf("hint=%s workers=%d n=%d: cut [%d,%d) not contiguous at %d", name, workers, n, c.lo, c.hi, next)
					}
					next = c.hi
				}
				if next != n && next != 0 {
					t.Fatalf("hint=%s workers=%d n=%d: cuts cover [0,%d)", name, workers, n, next)
				}
			}
		}
	}
}

// TestCollectSpanPanicReachesCallerOnce: a panic raised in one chunk of a
// CollectSpan reaches the caller exactly once, with its own value, and the
// panicking chunk ran exactly once.
func TestCollectSpanPanicReachesCallerOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 8} {
		p := NewPool(workers)
		var raised, ran atomic.Int32
		func() {
			defer func() {
				if r := recover(); r != nil {
					raised.Add(1)
					if r != "chunk exploded" {
						t.Errorf("workers=%d: recovered %v, want the chunk's panic value", workers, r)
					}
				}
			}()
			CollectSpan(p, 1000, func(lo, hi int) []int {
				if lo <= 500 && 500 < hi {
					ran.Add(1)
					panic("chunk exploded")
				}
				return []int{lo}
			})
			t.Errorf("workers=%d: CollectSpan returned past a panicking chunk", workers)
		}()
		if raised.Load() != 1 || ran.Load() != 1 {
			t.Fatalf("workers=%d: panic raised %d times on the caller, chunk ran %d times; want 1 and 1", workers, raised.Load(), ran.Load())
		}
	}
}

// MapAtomic is the original scheduler — one shared atomic counter, per-index
// dispatch — the reference baseline of the skew tests and benchmarks
// (skew_bench_test.go). Production code schedules with Map/MapSized.
func (p *Pool) MapAtomic(n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if p.workers == 1 || n == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next int64 = -1
	var wg sync.WaitGroup
	w := p.workers
	if w > n {
		w = n
	}
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1))
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

func TestMapAtomicRunsEachIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		p := NewPool(workers)
		counts := make([]atomic.Int32, 500)
		p.MapAtomic(500, func(i int) { counts[i].Add(1) })
		for i := range counts {
			if got := counts[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, got)
			}
		}
	}
}

// TestMapPanicPropagates pins the satellite bugfix: a panic inside fn must
// surface on the caller's goroutine — the old scheduler let it kill a worker
// goroutine and take the process down — and the pool must remain usable.
func TestMapPanicPropagates(t *testing.T) {
	for _, workers := range []int{1, 4} {
		p := NewPool(workers)
		var recovered interface{}
		func() {
			defer func() { recovered = recover() }()
			p.Map(100, func(i int) {
				if i == 37 {
					panic("partition 37 exploded")
				}
			})
		}()
		if recovered != "partition 37 exploded" {
			t.Fatalf("workers=%d: recovered %v, want the partition's panic value", workers, recovered)
		}
		// The pool is stateless across calls: the next Map must work.
		var ran atomic.Int32
		p.Map(50, func(int) { ran.Add(1) })
		if ran.Load() != 50 {
			t.Fatalf("workers=%d: pool unusable after panic: ran %d/50", workers, ran.Load())
		}
	}
}

// TestMapManyPanics: when several partitions panic, exactly one value is
// re-raised and every worker still exits (no deadlock on the WaitGroup).
func TestMapManyPanics(t *testing.T) {
	p := NewPool(8)
	done := make(chan interface{}, 1)
	go func() {
		defer func() { done <- recover() }()
		p.Map(64, func(i int) { panic(i) })
	}()
	select {
	case r := <-done:
		if r == nil {
			t.Fatal("panic swallowed")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Map deadlocked after panics")
	}
}

func TestChunksIsPureAndBounded(t *testing.T) {
	p := NewPool(4)
	if got := p.Chunks(1000); got != 16 {
		t.Errorf("Chunks(1000) = %d, want workers*chunkSplit = 16", got)
	}
	if got := p.Chunks(5); got != 5 {
		t.Errorf("Chunks(5) = %d, want n when n < workers*chunkSplit", got)
	}
	if got := NewPool(1).Chunks(1000); got != 1 {
		t.Errorf("sequential pool Chunks = %d, want 1", got)
	}
}

// ---------------------------------------------------------------------------
// Adaptive cutover model

func TestCostModelFixedPinsEveryClass(t *testing.T) {
	m := NewCostModel(7)
	for c := OpClass(0); c < numOpClasses; c++ {
		if got := m.Threshold(c); got != 7 {
			t.Errorf("class %s: fixed threshold = %d, want 7", c, got)
		}
	}
	// Observations are ignored while pinned.
	m.Observe(CostFold, 1000, time.Second, 1)
	if got := m.Threshold(CostFold); got != 7 {
		t.Errorf("fixed threshold drifted to %d after Observe", got)
	}
}

func TestCostModelAdaptsFromObservations(t *testing.T) {
	m := NewCostModel(0)
	before := m.Threshold(CostSelect)
	// Feed consistently expensive rows: 10µs per row should drive the
	// cutover down to the minimum clamp.
	for i := 0; i < 100; i++ {
		m.Observe(CostSelect, 1000, 10*time.Millisecond, 1)
	}
	after := m.Threshold(CostSelect)
	if after >= before {
		t.Fatalf("threshold did not drop: %d -> %d", before, after)
	}
	if after != minCutover {
		t.Fatalf("expensive rows should clamp to minCutover %d, got %d", minCutover, after)
	}
	// Feed near-free rows: the cutover must rise and clamp at the maximum.
	for i := 0; i < 200; i++ {
		m.Observe(CostSelect, 1_000_000, time.Microsecond, 1)
	}
	if got := m.Threshold(CostSelect); got != maxCutover {
		t.Fatalf("free rows should clamp to maxCutover %d, got %d", maxCutover, got)
	}
}

func TestCostModelScalesParallelObservations(t *testing.T) {
	seq, par := NewCostModel(0), NewCostModel(0)
	// The same wall clock at workers=8 represents ~8x the single-threaded
	// work, so the parallel observation must infer a higher per-row cost.
	seq.Observe(CostFold, 1000, time.Millisecond, 1)
	par.Observe(CostFold, 1000, time.Millisecond, 8)
	if par.perRowNs[CostFold] <= seq.perRowNs[CostFold] {
		t.Fatalf("parallel observation (%v ns/row) should exceed sequential (%v ns/row)",
			par.perRowNs[CostFold], seq.perRowNs[CostFold])
	}
}

func TestCostModelIgnoresDegenerateObservations(t *testing.T) {
	m := NewCostModel(0)
	before := m.perRowNs[CostScan]
	m.Observe(CostScan, 0, time.Second, 1)  // zero rows
	m.Observe(CostScan, 100, 0, 1)          // zero duration (clock granularity)
	m.Observe(CostScan, -5, time.Second, 1) // negative rows
	if m.perRowNs[CostScan] != before {
		t.Fatal("degenerate observations moved the EWMA")
	}
}

func TestCostModelNilSafe(t *testing.T) {
	var m *CostModel
	if got := m.Threshold(CostFold); got <= 0 {
		t.Fatalf("nil model threshold = %d", got)
	}
	m.Observe(CostFold, 10, time.Second, 1) // must not panic
	if m.Snapshot() != nil {
		t.Fatal("nil model should export no estimates")
	}
}

// ---------------------------------------------------------------------------
// Exchange accounting regression (satellite: zero-byte events)

// TestMetricsDropEmptyExchanges pins the accounting bugfix: recording a
// zero or negative byte count must not change the byte totals.
func TestMetricsDropEmptyExchanges(t *testing.T) {
	var m Metrics
	m.RecordShuffleBytes(0)
	m.RecordShuffleBytes(-10)
	m.RecordBroadcastBytes(0)
	m.RecordBroadcastBytes(-1)
	if m.ShuffleBytes() != 0 || m.BroadcastBytes() != 0 {
		t.Errorf("empty exchanges contributed %d shuffle, %d broadcast bytes", m.ShuffleBytes(), m.BroadcastBytes())
	}
}
