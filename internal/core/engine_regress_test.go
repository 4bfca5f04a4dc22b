package core

import (
	"testing"

	"iolap/internal/rel"
)

// ---------------------------------------------------------------------------
// Mini-batch aliasing regression
//
// The engine slices the streamed table into mini-batches. Before the fix the
// slices used two-index expressions (src.Tuples[lo:hi]), so batch i's slice
// kept capacity reaching into batch i+1's backing array: a single append to
// one mini-batch silently overwrote its neighbour's first tuple. The full
// slice expression src.Tuples[lo:hi:hi] clamps capacity so appends reallocate.

func assertBatchesIndependent(t *testing.T, deltas []*rel.Relation) {
	t.Helper()
	sentinel := rel.Tuple{Vals: []rel.Value{rel.String("SENTINEL")}, Mult: -12345}
	for i := 0; i+1 < len(deltas); i++ {
		next := deltas[i+1]
		before := make([]rel.Tuple, len(next.Tuples))
		copy(before, next.Tuples)
		deltas[i].Tuples = append(deltas[i].Tuples, sentinel)
		for j, want := range before {
			got := next.Tuples[j]
			if got.Mult != want.Mult || len(got.Vals) != len(want.Vals) {
				t.Fatalf("append to batch %d clobbered batch %d row %d: %v×%v, want %v×%v",
					i, i+1, j, got.Vals, got.Mult, want.Vals, want.Mult)
			}
			for k := range want.Vals {
				if !got.Vals[k].Equal(want.Vals[k]) {
					t.Fatalf("append to batch %d clobbered batch %d row %d col %d: %v, want %v",
						i, i+1, j, k, got.Vals[k], want.Vals[k])
				}
			}
		}
	}
}

func TestMiniBatchSlicesDoNotAlias(t *testing.T) {
	t.Run("contiguous", func(t *testing.T) {
		eng, err := NewEngine(planQuery(t, `SELECT COUNT(*) AS n FROM sessions`),
			testDB(120, 3), Options{Batches: 4, Trials: -1})
		if err != nil {
			t.Fatalf("engine: %v", err)
		}
		assertBatchesIndependent(t, eng.deltas)
	})
	t.Run("stratified", func(t *testing.T) {
		eng, err := NewEngine(planQuery(t, `SELECT COUNT(*) AS n FROM sessions`),
			testDB(120, 3), Options{Batches: 4, Trials: -1, StratifyBy: "cdn"})
		if err != nil {
			t.Fatalf("engine: %v", err)
		}
		assertBatchesIndependent(t, eng.deltas)
	})
}

// ---------------------------------------------------------------------------
// Failure-recovery accounting
//
// After a variation-range recovery the Update must describe the replay run,
// not the aborted attempt: seenRows is the true prefix length (restore rewinds
// it, the merged delta re-advances it), Fraction = seenRows/|D|, and
// Recomputed counts the replay's re-evaluated tuples. The test cross-checks
// the recovered step against a from-scratch engine that is stepped cleanly to
// the restore point and then fed the same merged delta by hand.

func TestRecoveryAccounting(t *testing.T) {
	opts := Options{Mode: ModeIOLAP, Batches: 10, Trials: 20, Slack: 0, Seed: 4}
	newFixture := func() (*Engine, error) {
		db := testDB(200, 7)
		sortSessionsByBufferTime(db)
		return NewEngine(planQuery(t, sbiQuery), db, opts)
	}
	eng, err := newFixture()
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	total := 0
	for _, d := range eng.deltas {
		total += d.Len()
	}
	cum := 0
	cleanPrefix := true
	verified := false
	for !eng.Done() {
		u, err := eng.Step()
		if err != nil {
			t.Fatalf("step: %v", err)
		}
		cum += eng.deltas[u.Batch-1].Len()
		if eng.seenRows != cum {
			t.Errorf("batch %d: seenRows = %d after recovery, want prefix length %d", u.Batch, eng.seenRows, cum)
		}
		if want := float64(cum) / float64(total); u.Fraction != want {
			t.Errorf("batch %d: Fraction = %v, want %v", u.Batch, u.Fraction, want)
		}
		if u.Recoveries == 0 && u.RecoveredFrom != -1 {
			t.Errorf("batch %d: RecoveredFrom = %d without a recovery", u.Batch, u.RecoveredFrom)
		}
		if u.Recoveries == 1 && cleanPrefix && !verified {
			verified = true
			verifyRecoveryReplay(t, newFixture, u)
		}
		if u.Recoveries > 0 {
			cleanPrefix = false
		}
	}
	if eng.TotalRecoveries() == 0 {
		t.Fatalf("fixture triggered no recoveries; the test exercised nothing")
	}
	if !verified {
		t.Skipf("no single-recovery step on a clean prefix; accounting invariants above still checked")
	}
}

// verifyRecoveryReplay rebuilds the recovered step from scratch: a fresh
// engine is stepped through batches 1..RecoveredFrom (asserting the prefix is
// recovery-free, i.e. its state matches the snapshot the real engine
// restored), then the merged delta (RecoveredFrom, Batch] is pushed through
// the pipeline exactly the way Engine.Step's recovery loop does. Recomputed,
// seenRows and the materialised result must all match the reported Update.
func verifyRecoveryReplay(t *testing.T, newFixture func() (*Engine, error), u *Update) {
	t.Helper()
	fresh, err := newFixture()
	if err != nil {
		t.Fatalf("fresh engine: %v", err)
	}
	j := u.RecoveredFrom
	for b := 0; b < j; b++ {
		cu, err := fresh.Step()
		if err != nil {
			t.Fatalf("fresh step %d: %v", b+1, err)
		}
		if cu.Recoveries != 0 {
			t.Fatalf("prefix batch %d recovered in the fresh run; determinism broken", cu.Batch)
		}
	}
	fresh.batch = u.Batch
	merged := fresh.mergeDeltas(j, u.Batch)
	fresh.seenRows += merged.Len()
	bc := fresh.newBatchContext(merged, fresh.seenRows, true)
	if _, err := fresh.comp.sink.step(bc); err != nil {
		t.Fatalf("replay step: %v", err)
	}
	if len(bc.failures) > 0 {
		t.Fatalf("manual replay failed integrity where the engine's converged")
	}
	if bc.recomputed != u.Recomputed {
		t.Errorf("Recomputed: engine reported %d, from-scratch replay counted %d", u.Recomputed, bc.recomputed)
	}
	if got := float64(fresh.seenRows) / float64(fresh.totalRows); got != u.Fraction {
		t.Errorf("Fraction: engine reported %v, from-scratch replay %v", u.Fraction, got)
	}
	res, _ := fresh.comp.sink.materialize(bc)
	if !rel.EqualBag(res, u.Result, 0) {
		t.Errorf("recovered result diverges from from-scratch replay\nengine:\n%s\nreplay:\n%s", u.Result, res)
	}
}

// ---------------------------------------------------------------------------
// Column-kind agreement with the exact oracle
//
// The oracle (exec.Run over the scaled prefix) and the online engine must
// deliver the same column kinds, not just numerically equal values —
// otherwise downstream consumers see schema flapping between the streaming
// result and the final exact one.

func TestOracleEngineKindAgreement(t *testing.T) {
	for _, name := range []string{"flat_global_agg", "flat_group_by", "join_dim_group"} {
		name := name
		t.Run(name, func(t *testing.T) {
			query := theoremQuery(t, name)
			db := testDB(90, 5)
			root := planQuery(t, query)
			eng, err := NewEngine(root, db, Options{Batches: 3, Trials: 10, Seed: 2})
			if err != nil {
				t.Fatalf("engine: %v", err)
			}
			us, err := eng.Run()
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			got := us[len(us)-1].Result.Canon()
			want := oracle(t, root, db, "sessions", 90).Canon()
			if len(got.Tuples) != len(want.Tuples) {
				t.Fatalf("row counts differ: engine %d, oracle %d", len(got.Tuples), len(want.Tuples))
			}
			for i := range got.Tuples {
				gv, wv := got.Tuples[i].Vals, want.Tuples[i].Vals
				if len(gv) != len(wv) {
					t.Fatalf("row %d widths differ: %d vs %d", i, len(gv), len(wv))
				}
				for c := range gv {
					if gv[c].Kind() != wv[c].Kind() {
						t.Errorf("row %d col %d: engine kind %s, oracle kind %s (values %v vs %v)",
							i, c, gv[c].Kind(), wv[c].Kind(), gv[c], wv[c])
					}
				}
			}
		})
	}
}
