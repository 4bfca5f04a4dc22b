package core

import (
	"fmt"
	"math"
	"os"
	"testing"

	"iolap/internal/storage"
)

// The spill policy promises that Options.StateBudgetBytes changes only WHERE
// join state lives, never WHAT the engine computes: every update must stay
// bit-identical to the in-memory sequential oracle at any budget, including a
// zero-byte budget that forces the entire join state through spill files.
// This suite sweeps budget × worker count over the equivalence fixtures
// (including the skewed-group and failure-recovery shapes), as the budget
// axis of TestExecutionLattice does for the golden cases, and separately
// proves the engine recovers from spill-file faults via the Section 5.1
// snapshot/replay path.

// runEngineUpdates runs gc's query over gc's database at opts.
func runEngineUpdates(t *testing.T, gc goldenCase, opts Options) ([]*Update, *Engine) {
	t.Helper()
	eng, err := NewEngine(planQuery(t, gc.query), goldenDB(gc), opts)
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	eng.SetCutover(1) // every parallel path, at any Workers above 1
	us, err := eng.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return us, eng
}

// nestedFewReadSpill is a range-tracking fixture in which every batch spills
// and none observes a range: nestedFewRead over 8,000 inner groups of two
// rows, all below rangeSupport, with its join store of session rows under
// a zero-byte budget.
var nestedFewReadSpill = goldenCase{name: "nested_few_read", query: nestedFewRead, n: 16000, dbSeed: 42, keys: 8000,
	opts: Options{Mode: ModeIOLAP, Batches: 8, Trials: 25, Seed: 3, Workers: 2, StateBudgetBytes: -1}}

// midRunWriteFault runs gc at its options over a FaultFS whose middle spill
// write fails, the middle of the schedule a clean run counts.
func midRunWriteFault(t *testing.T, gc goldenCase) ([]*Update, *Engine) {
	t.Helper()
	clean := storage.NewFaultFS(storage.NewMemFS())
	o := gc.opts
	o.SpillFS = clean
	_, cleanEng := runEngineUpdates(t, gc, o)
	cleanEng.Close()
	writes, _ := clean.Ops()
	if writes == 0 {
		t.Fatalf("%s never spilled", gc.name)
	}
	faulty := storage.NewFaultFS(storage.NewMemFS())
	faulty.FailWriteAt(max(1, writes/2), false)
	o.SpillFS = faulty
	return runEngineUpdates(t, gc, o)
}

// assertResultsIdentical compares only the user-visible answer — batch
// labels, fraction, and the (result, estimates) pair by ResultDigest —
// ignoring accounting metrics. It is the right comparison when one run
// recovered and the other did not: recovery legitimately changes
// Recomputed/ShuffleBytes/Recoveries, but the paper's replay protocol
// guarantees the answer itself is unchanged.
func assertResultsIdentical(t *testing.T, want, got []*Update) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("update counts differ: %d vs %d", len(want), len(got))
	}
	for i := range want {
		a, b := want[i], got[i]
		if a.Batch != b.Batch || a.Batches != b.Batches {
			t.Fatalf("update %d: batch labels differ: %d/%d vs %d/%d", i, a.Batch, a.Batches, b.Batch, b.Batches)
		}
		if math.Float64bits(a.Fraction) != math.Float64bits(b.Fraction) {
			t.Errorf("batch %d: Fraction %v vs %v", a.Batch, a.Fraction, b.Fraction)
		}
		if da, db := updateDigest(t, a), updateDigest(t, b); da != db {
			t.Fatalf("batch %d: result or estimates differ (digest %x vs %x)\nwant:\n%s\ngot:\n%s",
				a.Batch, da, db, a.Result, b.Result)
		}
	}
}

// TestBudgetEquivalenceSweep is the satellite-2 matrix: StateBudgetBytes in
// {zero-byte, tiny, unbounded} × Workers in {1, 2, 8}, each cell compared
// against the Workers=1 in-memory oracle. Within a budget, worker count must
// not even change the spill metrics — eviction order and run layout are
// deterministic — so same-budget pairs are compared field for field.
func TestBudgetEquivalenceSweep(t *testing.T) {
	budgets := []struct {
		name   string
		budget int64
	}{
		{"full_spill", -1},     // zero-byte budget: all join state on disk
		{"tiny", 32 << 10},     // partial spill under pressure
		{"unbounded", 1 << 40}, // policy active, nothing ever evicted
	}
	base := Options{Mode: ModeIOLAP, Batches: 6, Trials: 25, Seed: 3}
	cases := []struct {
		goldenCase
		wantSpill bool // fixture has join state, so full_spill must hit disk
	}{
		{goldenCase{name: "flat_group_by", query: theoremQuery(t, "flat_group_by"), opts: base}, false},
		{goldenCase{name: "join_dim_group", query: theoremQuery(t, "join_dim_group"), opts: base}, true},
		{goldenCase{name: "sbi", query: sbiQuery, opts: base}, true},
		{goldenCase{name: "skewed_group/join", query: theoremQuery(t, "join_dim_group"), opts: base, skewed: true}, true},
		// Adversarial order + zero slack: variation-range failures fire, so
		// snapshot restore and merged-delta replay run over spilled state.
		{goldenCase{name: "recovery", query: sbiQuery, n: 200, dbSeed: 7, sorted: true, wantRecovery: true,
			opts: Options{Mode: ModeIOLAP, Batches: 10, Trials: 20, Slack: 0, Seed: 4}}, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			lc := c.lattice(t)
			oracle := runAt(t, lc, execConfig{workers: 1})
			for _, b := range budgets {
				t.Run(b.name, func(t *testing.T) {
					var first []*Update
					for _, w := range []int{1, 2, 8} {
						r := runAt(t, lc, execConfig{workers: w, budget: b.budget})
						label := fmt.Sprintf("%d workers", w)
						// Budget changes placement, never results.
						compareUpdates(t, label, oracle.us, r.us, budgetFields...)
						// Same budget, different workers: everything must
						// match, spill metrics included.
						if first == nil {
							first = r.us
						} else {
							compareUpdates(t, label, first, r.us)
						}
						if c.wantSpill && b.budget < 0 && r.eng.TotalSpillBytesWritten() == 0 {
							t.Errorf("%s: full-spill budget never wrote a spill file; the case tests nothing", label)
						}
						if !c.wantSpill && r.eng.TotalSpillBytesWritten() != 0 {
							t.Errorf("%s: fixture without join state spilled %d bytes", label, r.eng.TotalSpillBytesWritten())
						}
					}
				})
			}
		})
	}
}

// TestSpillTempDirLifecycle exercises the default OSFS path: with no SpillFS
// injected the engine creates its own temp directory, writes real spill
// files into it, and Close removes the whole thing. Results must still match
// the in-memory run bit for bit.
func TestSpillTempDirLifecycle(t *testing.T) {
	query := theoremQuery(t, "join_dim_group")
	opts := Options{Mode: ModeIOLAP, Batches: 4, Trials: 10, Seed: 3, Workers: 2}

	memOpts := opts
	want, memEng := runEngineUpdates(t, goldenCase{query: query}, memOpts)
	defer memEng.Close()

	diskOpts := opts
	diskOpts.StateBudgetBytes = -1
	got, eng := runEngineUpdates(t, goldenCase{query: query}, diskOpts)
	assertResultsIdentical(t, want, got)
	compareUpdates(t, "spilled", want, got, budgetFields...)

	dir := eng.spillDirOwned
	if dir == "" {
		t.Fatal("engine with a budget and no SpillFS must own a temp spill dir")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("read spill dir: %v", err)
	}
	if len(entries) == 0 {
		t.Fatal("no spill files written to the owned dir")
	}
	if eng.TotalSpillBytesWritten() == 0 {
		t.Fatal("TotalSpillBytesWritten = 0 on a full-spill run")
	}
	if err := eng.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Fatalf("spill dir %s survives Close (stat err %v)", dir, err)
	}
	if err := eng.Close(); err != nil {
		t.Fatalf("second Close must be a no-op: %v", err)
	}
}

// TestSpillFaultEngineRecovery is the satellite-1 harness at the engine
// level: a write error, a torn write, or a failed fsync in the middle of a
// spill must surface as a recovery event — snapshot restore plus merged-delta
// replay — after which the run completes with answers bit-identical to the
// fault-free in-memory oracle.
func TestSpillFaultEngineRecovery(t *testing.T) {
	query := theoremQuery(t, "join_dim_group")
	base := Options{Mode: ModeIOLAP, Batches: 6, Trials: 25, Seed: 3,
		Workers: 2, StateBudgetBytes: -1}

	oracleOpts := base
	oracleOpts.StateBudgetBytes = 0 // in-memory, no spill machinery at all
	oracle, oracleEng := runEngineUpdates(t, goldenCase{query: query}, oracleOpts)
	defer oracleEng.Close()

	// A clean spill run counts the deterministic write/sync schedule the
	// fault scenarios then aim into the middle of.
	clean := storage.NewFaultFS(storage.NewMemFS())
	cleanOpts := base
	cleanOpts.SpillFS = clean
	cleanUs, cleanEng := runEngineUpdates(t, goldenCase{query: query}, cleanOpts)
	defer cleanEng.Close()
	assertResultsIdentical(t, oracle, cleanUs)
	if cleanEng.TotalRecoveries() != 0 {
		t.Fatalf("clean spill run recovered %d times", cleanEng.TotalRecoveries())
	}
	writes, syncs := clean.Ops()
	if writes == 0 || syncs == 0 {
		t.Fatalf("fixture never spilled (writes %d, syncs %d)", writes, syncs)
	}

	scenarios := []struct {
		name string
		arm  func(fs *storage.FaultFS)
	}{
		{"write_error", func(fs *storage.FaultFS) { fs.FailWriteAt(max(1, writes/2), false) }},
		{"short_write", func(fs *storage.FaultFS) { fs.FailWriteAt(max(1, writes/2), true) }},
		{"sync_error", func(fs *storage.FaultFS) { fs.FailSyncAt(max(1, syncs/2)) }},
	}
	for _, sc := range scenarios {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			ffs := storage.NewFaultFS(storage.NewMemFS())
			sc.arm(ffs)
			o := base
			o.SpillFS = ffs
			us, eng := runEngineUpdates(t, goldenCase{query: query}, o)
			defer eng.Close()
			if eng.TotalRecoveries() == 0 {
				t.Fatal("injected spill fault triggered no recovery; the scenario tests nothing")
			}
			recovered := 0
			for _, u := range us {
				recovered += u.Recoveries
			}
			if recovered != eng.TotalRecoveries() {
				t.Errorf("per-update Recoveries sum %d != TotalRecoveries %d", recovered, eng.TotalRecoveries())
			}
			// The answer is untouched: replay rebuilds the exact state.
			assertResultsIdentical(t, oracle, us)
		})
	}
	// A query that tracks ranges but observes none: its recovery restores the
	// previous batch from the snapshot list, which holds that batch's state
	// only because of the budget.
	t.Run("range_tracking", func(t *testing.T) {
		gc := nestedFewReadSpill
		mem := gc.opts
		mem.StateBudgetBytes = 0
		memEng, err := NewEngine(planQuery(t, gc.query), goldenDB(gc), mem)
		if err != nil {
			t.Fatalf("engine: %v", err)
		}
		defer memEng.Close()
		var oracle []*Update
		for !memEng.Done() {
			u, err := memEng.Step()
			if err != nil {
				t.Fatalf("step: %v", err)
			}
			if memEng.observed != 0 {
				t.Fatalf("batch %d observed %d ranges; the fixture needs batches that observe none", u.Batch, memEng.observed)
			}
			oracle = append(oracle, u)
		}
		us, eng := midRunWriteFault(t, gc)
		defer eng.Close()
		midRun := false
		for _, u := range us {
			if u.Recoveries > 0 {
				midRun = midRun || u.RecoveredFrom > 0
				if u.RecoveredFrom != u.Batch-1 {
					t.Errorf("batch %d recovered from %d, want the previous batch", u.Batch, u.RecoveredFrom)
				}
			}
		}
		if !midRun {
			t.Fatal("the fault restored no snapshot after a batch; the case tests nothing")
		}
		assertResultsIdentical(t, oracle, us)
	})
}
