package core

import (
	"math"
	"strings"
	"testing"
)

// poisonSlabs makes the engine's weigher NaN-fill every array of a step when
// the next step begins, and draw into fresh ones (weigher.begin): a vector
// that any holder kept past its step reads NaN from then on, and the NaN
// reaches the replicates it is folded into.
func (e *Engine) poisonSlabs() {
	if e.comp.weights != nil {
		e.comp.weights.poison = true
	}
}

// TestPoisonedSlabsKeepGoldens runs every golden case at Trials {0, 25} and
// every Theorem-1 case in the lattice's reference cell with poisoned arrays.
// Every row an operator keeps past its step (join stores, ND sets, lineage
// rows, the sink's certain set) must own its weights, so the golden words and
// the oracle still hold. The Theorem-1 fuzz cases are skipped under -short.
func TestPoisonedSlabsKeepGoldens(t *testing.T) {
	golden := readGolden(t, trajectoryGoldenPath)
	ref := latticeCells()[0].engines[0]
	ref.poison = true
	for _, gc := range goldenCases(t) {
		for _, trials := range []int{0, 25} {
			key, c := gc.at(t, trials)
			t.Run(c.name, func(t *testing.T) {
				if d := digestUpdates(t, runAt(t, c, ref).us); d != golden[key] {
					t.Errorf("trajectory digest %016x, golden %016x", d, golden[key])
				}
			})
		}
	}
	for _, c := range theorem1Cases(t) {
		t.Run(c.name, func(t *testing.T) {
			if testing.Short() && strings.HasPrefix(c.name, "fuzz") {
				t.Skip("long test")
			}
			checkReference(t, c, runAt(t, c, ref))
		})
	}
}

// TestPoisonSeamPoisons: with the seam on, a vector kept past its step by a
// holder that does not own it reads NaN once the next step begins. The tap
// keeps the aggregate's input rows, whose vectors the aggregate fills in
// place.
func TestPoisonSeamPoisons(t *testing.T) {
	eng, err := NewEngine(planQuery(t, theoremQuery(t, "flat_group_by")), testDB(240, 11),
		Options{Batches: 4, Trials: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	eng.poisonSlabs()
	var tap *tapOp
	for _, op := range eng.comp.ops {
		if a, ok := op.(*opAgg); ok && tap == nil {
			tap = &tapOp{operator: a.child, alias: true}
			a.child = tap
		}
	}
	if tap == nil {
		t.Fatal("no aggregate")
	}
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	for s, out := range tap.outs[:len(tap.outs)-1] {
		for _, r := range out.news {
			if len(r.W) == 0 || !math.IsNaN(r.W[0]) {
				t.Fatalf("step %d: a vector kept past its step reads %v, want NaN", s+1, r.W)
			}
		}
	}
}
