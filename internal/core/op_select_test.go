package core

import (
	"testing"

	"iolap/internal/bootstrap"
	"iolap/internal/delta"
	"iolap/internal/expr"
	"iolap/internal/plan"
	"iolap/internal/rel"
)

// stubOp feeds scripted outputs to a parent operator.
type stubOp struct {
	emitCounts
	script []output
	calls  int
}

func (s *stubOp) step(*batchContext) (output, error) {
	out := s.script[s.calls]
	s.calls++
	return out, nil
}
func (s *stubOp) snapshot() interface{} { return s.calls }
func (s *stubOp) restore(v interface{}) { s.calls = v.(int) }
func (s *stubOp) stateBytes() int       { return 0 }
func (s *stubOp) kind() string          { return "stub" }

// testBC builds a batch context with one published aggregate table whose
// single value has the given running value and variation range.
func testBC(batch int, val float64, lo, hi float64) *batchContext {
	bc := &batchContext{
		batch:  batch,
		scale:  1,
		trials: 0,
		tables: make(map[int]*aggTable),
		lazy:   true,
		prune:  true,
	}
	bc.publish(7, &aggTable{
		groupCols: 0,
		byKey: map[string]*aggPub{
			"": {vals: []expr.UncValue{{
				Value: rel.Float(val),
				Range: bootstrap.Interval{Lo: lo, Hi: hi},
			}}},
		},
	})
	return bc
}

// selectFixture builds an opSelect over rows [x, ref] with predicate
// x > ref — the SBI filter shape.
func selectFixture(script []output) *opSelect {
	schema := rel.Schema{
		{Name: "x", Type: rel.KFloat},
		{Name: "avg", Type: rel.KFloat},
	}
	scan := plan.NewScan("t", "", schema, true)
	pred := expr.NewCmp(expr.Gt,
		expr.NewCol(0, "x", rel.KFloat),
		expr.NewCol(1, "avg", rel.KFloat))
	node := plan.NewSelect(scan, pred)
	plan.Finalize(node)
	return &opSelect{
		node:          node,
		child:         &stubOp{script: script},
		predUncertain: true,
	}
}

func rowWithRef(x float64) delta.Row {
	return delta.Row{
		Vals: []rel.Value{rel.Float(x), rel.NewRef(rel.Ref{Op: 7, Key: "", Col: 0})},
		Mult: 1,
	}
}

// TestSelectClassification reproduces the Example 2 state machine: with
// R = [21.1, 53.9], x=58 passes permanently, x=17 drops permanently, x=36
// joins the non-deterministic set and is re-emitted while currently true.
func TestSelectClassification(t *testing.T) {
	op := selectFixture([]output{
		{news: []delta.Row{rowWithRef(58), rowWithRef(17), rowWithRef(36)}},
		{}, // batch 2: no new input
	})
	bc := testBC(1, 37, 21.1, 53.9)
	out, err := op.step(bc)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.news) != 1 || out.news[0].Vals[0].Float() != 58 {
		t.Fatalf("batch 1 news = %v, want just x=58", out.news)
	}
	// x=36 < avg 37: in the ND set but not currently passing.
	if len(out.unc) != 0 {
		t.Fatalf("batch 1 unc = %v, want empty (36 < 37)", out.unc)
	}
	if op.state.Len() != 1 {
		t.Fatalf("ND set = %d rows, want 1", op.state.Len())
	}
	// Batch 2: the running average drops to 30 — x=36 now passes but the
	// range still straddles it, so it stays non-deterministic.
	bc2 := testBC(2, 30, 25, 45)
	out, err = op.step(bc2)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.unc) != 1 || out.unc[0].Vals[0].Float() != 36 {
		t.Fatalf("batch 2 unc = %v, want x=36 (currently passing)", out.unc)
	}
	if len(out.news) != 0 {
		t.Fatalf("batch 2 news = %v, want empty", out.news)
	}
}

// TestSelectPromotion: when the range narrows away from a state row's
// value, the row is promoted to certain (emitted once as news) or pruned —
// and leaves the state either way.
func TestSelectPromotion(t *testing.T) {
	op := selectFixture([]output{
		{news: []delta.Row{rowWithRef(36)}},
		{},
		{},
	})
	// Batch 1: wide range — 36 is non-deterministic.
	if _, err := op.step(testBC(1, 37, 21, 54)); err != nil {
		t.Fatal(err)
	}
	if op.state.Len() != 1 {
		t.Fatal("row should be in the ND set")
	}
	// Batch 2: the range narrows below 36 — promotion to certain.
	out, err := op.step(testBC(2, 33, 30, 35))
	if err != nil {
		t.Fatal(err)
	}
	if len(out.news) != 1 || out.news[0].Vals[0].Float() != 36 {
		t.Fatalf("promotion should emit the row as news, got %v", out.news)
	}
	if op.state.Len() != 0 {
		t.Error("promoted row must leave the ND set")
	}
	// Batch 3: nothing left to do.
	out, err = op.step(testBC(3, 33, 31, 34))
	if err != nil {
		t.Fatal(err)
	}
	if len(out.news)+len(out.unc) != 0 {
		t.Errorf("no further emissions expected, got %v/%v", out.news, out.unc)
	}
}

func TestSelectPrune(t *testing.T) {
	op := selectFixture([]output{
		{news: []delta.Row{rowWithRef(36)}},
		{},
	})
	if _, err := op.step(testBC(1, 37, 21, 54)); err != nil {
		t.Fatal(err)
	}
	// Range narrows above 36: the row can never pass — pruned silently.
	out, err := op.step(testBC(2, 40, 38, 44))
	if err != nil {
		t.Fatal(err)
	}
	if len(out.news)+len(out.unc) != 0 {
		t.Errorf("pruned row must not be emitted: %v/%v", out.news, out.unc)
	}
	if op.state.Len() != 0 {
		t.Error("pruned row must leave the ND set")
	}
}

func TestSelectUpstreamUncPassThrough(t *testing.T) {
	// Upstream tuple-uncertain rows are re-filtered by current value and
	// never enter this operator's own state.
	op := selectFixture([]output{
		{unc: []delta.Row{rowWithRef(58), rowWithRef(17)}},
	})
	out, err := op.step(testBC(1, 37, 21, 54))
	if err != nil {
		t.Fatal(err)
	}
	if len(out.unc) != 1 || out.unc[0].Vals[0].Float() != 58 {
		t.Fatalf("unc pass-through wrong: %v", out.unc)
	}
	if op.state.Len() != 0 {
		t.Error("upstream uncertainty is owned upstream")
	}
}

func TestSelectHDAKeepsEverything(t *testing.T) {
	op := selectFixture([]output{
		{news: []delta.Row{rowWithRef(58), rowWithRef(17), rowWithRef(36)}},
		{},
	})
	bc := testBC(1, 37, 21.1, 53.9)
	bc.prune = false // HDA: no variation-range classification
	out, err := op.step(bc)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.news) != 0 {
		t.Error("HDA never promotes")
	}
	if op.state.Len() != 3 {
		t.Errorf("HDA keeps all rows in state: %d", op.state.Len())
	}
	if len(out.unc) != 1 { // only 58 currently passes
		t.Errorf("HDA current output = %v", out.unc)
	}
}
