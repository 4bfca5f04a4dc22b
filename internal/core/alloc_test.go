package core

import (
	"runtime"
	"testing"

	"iolap/internal/bootstrap"
	"iolap/internal/exec"
)

// measureAllocsPerTuple runs the engine over all batches of a fresh query
// and returns heap allocations and bytes allocated per streamed tuple across
// the steady-state batches (the first batch is excluded: it builds the
// groups, scratch buffers, and weight slab capacity that later batches reuse).
// cutover is the engine's parallel cutover (Engine.SetCutover; 0 adaptive).
func measureAllocsPerTuple(t *testing.T, query string, db *exec.DB, opts Options, cutover int) (allocs, bytes float64) {
	t.Helper()
	src, _ := db.Get("sessions")
	n := src.Len()
	root := planQuery(t, query)
	opts.Batches, opts.Trials = 8, 100
	eng, err := NewEngine(root, db, opts)
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	eng.SetCutover(cutover)
	if _, err := eng.Step(); err != nil { // warm-up batch
		t.Fatalf("warm-up step: %v", err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	steps := 0
	for !eng.Done() {
		if _, err := eng.Step(); err != nil {
			t.Fatalf("step: %v", err)
		}
		steps++
	}
	runtime.ReadMemStats(&after)
	tuples := float64(n) * float64(steps) / 8.0
	return float64(after.Mallocs-before.Mallocs) / tuples, float64(after.TotalAlloc-before.TotalAlloc) / tuples
}

// TestEngineAllocsPerTupleSteadyState bounds end-to-end allocations per
// streamed tuple on the aggregate hot path, sequential and parallel. The
// per-tuple work — group lookup (EncodeKeyInto + no-copy map index),
// Poisson weights (weigher.fill: one arena per plan, reused), and the bank kernels — is
// allocation-free; what remains is per-batch and per-group overhead
// (result materialization, the weight slab, update plumbing), which
// amortizes far below one allocation per tuple. A true per-tuple
// regression (one weight slice or key string per row costs >= 1/tuple)
// trips the bound at once.
func TestEngineAllocsPerTupleSteadyState(t *testing.T) {
	const n = 16000
	const bound = 0.5
	queries := []struct{ name, q string }{
		{"global_agg", `SELECT COUNT(*) AS n, AVG(buffer_time) AS abt, SUM(play_time) AS spt FROM sessions`},
		{"group_by", `SELECT cdn, SUM(play_time) AS spt, STDDEV(buffer_time) AS sbt FROM sessions GROUP BY cdn`},
		// Columnar filter -> batched fold: the select builds the
		// predicate's banks from the scan's batch, and the fold reads the
		// survivors' keys and arguments from their rows.
		{"filter_group_by", `SELECT cdn, SUM(play_time) AS spt, MIN(buffer_time) AS mbt
			FROM sessions WHERE buffer_time > 25 GROUP BY cdn`},
	}
	for _, q := range queries {
		for _, workers := range []int{1, 4} {
			got, _ := measureAllocsPerTuple(t, q.q, testDB(n, 42), Options{Workers: workers}, 0)
			if got > bound {
				t.Errorf("%s workers=%d: %.3f allocs/tuple, want <= %v", q.name, workers, got, bound)
			}
		}
	}
	// The shapes the zero-alloc work never covered. Their steady state is not
	// allocation-free (joined rows, result rows and per-batch snapshots are
	// real per-tuple or per-group objects), so each bound is what the commit
	// before the one-fold refactor measured, rounded up 10% — a regression
	// guard for the fold's scratch (a per-batch map, a per-group slice), not a
	// target. Cutover 1 makes Workers=4 take the parallel schedule on
	// every batch, so the count does not depend on the adaptive cutover.
	cdnKeys := func(keys int) func() *exec.DB {
		return func() *exec.DB {
			db := testDB(n, 42)
			rekeyCDN(db, keys)
			return db
		}
	}
	shapes := []struct {
		name, q string
		db      func() *exec.DB
		bounds  [2]float64 // Workers 1, 4
	}{
		// Post-join fold.
		{"join_dim_group", theoremQuery(t, "join_dim_group"), nil, [2]float64{1.14, 1.31}}, // parent: 1.034, 1.184,
		// Phase B: pending rows re-folded into scratch vectors every batch.
		// Re-pinned when state began sharing rows (no ND-set, lineage or
		// snapshot clones): measured ×1.1. Its allocations are the pending
		// ND-set rows, not snapshots.
		{"nested_correlated", theoremQuery(t, "nested_correlated"), nil, [2]float64{3.40, 3.70}}, // measured: 3.088, 3.360,
		// 1,500 groups of 1-2 rows per 2,000-row batch, all created by the
		// warm-up batch. Re-pinned when publish carved its table from
		// per-batch slabs: measured ×1.1.
		{"many_groups", `SELECT cdn, SUM(play_time) AS spt, AVG(buffer_time) AS abt FROM sessions GROUP BY cdn`,
			cdnKeys(1500), [2]float64{1.69, 1.72}}, // measured: 1.533, 1.565; parent: 4.531, 4.556,
		// The correlated query over 8,000 inner groups of two rows, below
		// rangeSupport: no batch observes a range, so the engine takes no
		// recovery snapshot (Engine.recoverySnapshot). Re-pinned when it
		// stopped snapshotting such batches: measured ×1.1.
		{"nested_many_groups", theoremQuery(t, "nested_correlated"),
			cdnKeys(8000), [2]float64{11.6, 11.8}}, // measured: 10.533, 10.738; parent: 19.182, 19.386,
	}
	for _, sh := range shapes {
		for wi, workers := range []int{1, 4} {
			db := testDB(n, 42)
			if sh.db != nil {
				db = sh.db()
			}
			got, _ := measureAllocsPerTuple(t, sh.q, db, Options{Workers: workers}, 1)
			t.Logf("%s workers=%d: %.3f allocs/tuple (bound %v)", sh.name, workers, got, sh.bounds[wi])
			if got > sh.bounds[wi] {
				t.Errorf("%s workers=%d: %.3f allocs/tuple, want <= %v", sh.name, workers, got, sh.bounds[wi])
			}
		}
	}
}

// TestEngineAllocBytesPerTuple bounds the bytes nested_few_read allocates per
// streamed tuple at Workers 1. Its outer select compares ~5% of the rows with
// the inner average over 8,000 cdn groups, so a batch reads few of the inner
// groups, and the aggregate computes the values of those alone (DESIGN.md §6
// "Publish on read"). No batch observes a range, so none is snapshotted for
// recovery. The bound is the measured value +10%; snapshotting every batch
// reads 6,059, and computing every group's values every batch, as publish
// once did, 9,400.
func TestEngineAllocBytesPerTuple(t *testing.T) {
	const bound = 2960.0 // measured: 2687; parent: 6059
	db := testDB(16000, 42)
	rekeyCDN(db, 8000)
	_, got := measureAllocsPerTuple(t, nestedFewRead, db, Options{Workers: 1}, 1)
	t.Logf("nested_few_read: %.0f bytes/tuple (bound %v)", got, bound)
	if got > bound {
		t.Errorf("nested_few_read: %.0f bytes/tuple, want <= %v", got, bound)
	}
}

// TestAggSnapshotAllocs bounds what one aggregate snapshot allocates: its
// storage is carved once per snapshot (DESIGN.md §6 "Aggregate snapshots"),
// so besides each range's own Range.Snapshot it allocates a constant number
// of times, whatever the group count. The inner aggregate of the correlated
// query holds G groups of ten rows, every one's range bound and observed by
// the last step. Each run snapshots an operator of its own right after that
// step, as the engine's next step would.
func TestAggSnapshotAllocs(t *testing.T) {
	const perSnapshot = 5 // the snapshot, its groups, vector snapshots, ranges and bank slab
	const runs = 4
	for _, groups := range []int{50, 400} {
		aggs := make([]*opAgg, runs+1) // AllocsPerRun runs f once more to warm up
		for i := range aggs {
			aggs[i] = boundInnerAgg(t, groups)
		}
		ranges := testing.AllocsPerRun(runs, func() {
			for _, g := range aggs[0].groups {
				for _, r := range g.ranges {
					rangeSink = r.Snapshot()
				}
			}
		})
		next := 0
		got := testing.AllocsPerRun(runs, func() {
			aggs[next].snapshot()
			next++
		})
		t.Logf("%d groups: %.0f allocs per snapshot, %.0f of them the ranges'", groups, got, ranges)
		if got > ranges+perSnapshot {
			t.Errorf("%d groups: %.0f allocs per snapshot, want <= %.0f (the ranges' %.0f + %d)",
				groups, got, ranges+perSnapshot, ranges, perSnapshot)
		}
	}
}

// rangeSink keeps a range snapshot on the heap, as a snapshot keeps it.
var rangeSink *bootstrap.Range

// boundInnerAgg runs the correlated query over groups inner groups of ten
// rows whose ranges bind at four, and returns its inner aggregate.
func boundInnerAgg(t *testing.T, groups int) *opAgg {
	t.Helper()
	db := testDB(10*groups, 42)
	rekeyCDN(db, groups)
	eng, err := NewEngine(planQuery(t, theoremQuery(t, "nested_correlated")), db,
		Options{Batches: 4, Trials: 10, Seed: 3, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	eng.setRangeSupport(4)
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	for _, op := range eng.comp.ops {
		if a, ok := op.(*opAgg); ok && len(a.node.GroupBy) > 0 && len(a.bound) == groups {
			return a
		}
	}
	t.Fatalf("no inner aggregate with %d bound groups", groups)
	return nil
}
