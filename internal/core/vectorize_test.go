package core

import (
	"fmt"
	"testing"

	"iolap/internal/exec"
	"iolap/internal/expr"
	"iolap/internal/plan"
	"iolap/internal/rel"
	"iolap/internal/workload"
)

// The columnar filter (DESIGN.md §14) promises bit-identical updates to the
// row filter: it keeps exactly the rows the row path's acceptance test keeps,
// in the same order. This suite enforces the promise by running each query
// shape with Options.NoVectorize on and off — at Workers 1 and 4, so both
// schedules face both filters — and comparing every Update field exactly
// (relations, bootstrap estimates, accounting metrics).
func TestVectorizeEquivalence(t *testing.T) {
	base := Options{Mode: ModeIOLAP, Batches: 6, Trials: 25, Seed: 3}
	hda := base
	hda.Mode = ModeHDA
	cases := []goldenCase{
		{name: "flat_group_by", query: theoremQuery(t, "flat_group_by"), opts: base},
		// Deterministic WHERE over the streamed scan: the columnar filter.
		{name: "flat_filter_agg", query: theoremQuery(t, "flat_filter_agg"), opts: base},
		// Streamed fact ⋈ static dimension: no select over a scan, so both
		// settings run the same operators.
		{name: "join_dim_group", query: theoremQuery(t, "join_dim_group"), opts: base},
		{name: "union_all", query: theoremQuery(t, "union_all"), opts: base},
		{name: "case_expression", query: theoremQuery(t, "case_expression"), opts: base},
		{name: "nested_correlated", query: theoremQuery(t, "nested_correlated"), opts: base},
		{name: "sbi/iolap", query: sbiQuery, opts: base},
		{name: "sbi/hda", query: sbiQuery, opts: hda},
		// ~90% of rows in one group: the heavy group's replicate-split.
		{name: "skewed_group", query: theoremQuery(t, "flat_group_by"), opts: base, skewed: true},
		// Adversarial arrival order + zero slack: snapshot restore and
		// merged-delta replay run through the batched fold too.
		{name: "recovery", query: sbiQuery, sorted: true,
			opts: Options{Mode: ModeIOLAP, Batches: 10, Trials: 20, Slack: 0, Seed: 4}},
	}
	for _, c := range cases {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/w%d", c.name, workers), func(t *testing.T) {
				assertConfigsAgree(t, c.lattice(t),
					execConfig{workers: workers, novec: true}, execConfig{workers: workers})
			})
		}
	}
}

// nullTap hands its parent the rows of the operator it wraps with every value
// NULL, and records each step's context. Above it the row filter keeps no
// row, while the columnar filter, which builds its banks from the scan's
// batch (bc.delta), keeps the rows whose real values pass: a select's
// survivors tell which filter ran.
type nullTap struct {
	operator
	bcs []*batchContext
}

func (n *nullTap) step(bc *batchContext) (output, error) {
	out, err := n.operator.step(bc)
	n.bcs = append(n.bcs, bc)
	for i := range out.news {
		out.news[i].Vals = make([]rel.Value, len(out.news[i].Vals))
	}
	return out, err
}

// TestColumnarFilterLive: a deterministic select directly above a streamed
// scan filters over column banks unless Options.NoVectorize is set, and the
// banks it builds are exactly its predicate's columns. The lattice cannot
// see this: both filters give the same verdicts, so a select that quietly
// fell back to the row filter would keep every cell green.
func TestColumnarFilterLive(t *testing.T) {
	conviva := workload.Conviva(workload.ConvivaScale{Sessions: 2000, Seed: 1})
	c3, _ := conviva.Query("C3")
	c3Root, _, err := conviva.Plan(c3)
	if err != nil {
		t.Fatal(err)
	}
	shapes := []struct {
		name string
		root plan.Node
		db   *exec.DB
	}{
		{"flat_filter_agg", planQuery(t, theoremQuery(t, "flat_filter_agg")), testDB(2000, 42)},
		{"C3", c3Root, conviva.DB()},
	}
	for _, sh := range shapes {
		for _, novec := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/novec=%v", sh.name, novec), func(t *testing.T) {
				eng, err := NewEngine(sh.root, sh.db, Options{Batches: 4, Trials: 10, Seed: 3, NoVectorize: novec})
				if err != nil {
					t.Fatal(err)
				}
				defer eng.Close()
				var sel *opSelect
				for _, op := range eng.comp.ops {
					if s, ok := op.(*opSelect); ok && s.scan != nil {
						sel = s
					}
				}
				if sel == nil {
					t.Fatal("no select with a compiled predicate directly above a streamed scan")
				}
				tap := &nullTap{operator: sel.child}
				sel.child = tap
				var kept []int
				for !eng.Done() {
					if _, err := eng.Step(); err != nil {
						t.Fatal(err)
					}
					news, _ := sel.lastCounts()
					kept = append(kept, news)
				}
				if len(tap.bcs) != len(kept) || len(kept) == 0 {
					t.Fatalf("%d select steps over %d batches", len(tap.bcs), len(kept))
				}
				pred := make([]bool, len(sel.node.Schema()))
				for _, col := range sel.node.Pred.Cols(nil) {
					pred[col] = true
				}
				for i, bc := range tap.bcs {
					d := bc.delta[sel.scan.node.Table]
					want := 0
					for _, tp := range d.Tuples {
						if expr.Holds(sel.node.Pred, tp.Vals, bc) && !novec {
							want++
						}
					}
					if kept[i] != want {
						t.Errorf("batch %d: the select kept %d rows, want %d (columnar filter %v)", i+1, kept[i], want, !novec)
					}
					cols := sel.columns(bc)
					if novec {
						if cols != nil {
							t.Errorf("batch %d: banks built under NoVectorize", i+1)
						}
						continue
					}
					if cols == nil {
						t.Fatalf("batch %d: no banks", i+1)
					}
					for col, b := range cols.Banks {
						if built := b.Floats != nil || b.Ints != nil || b.Codes != nil || b.Mixed != nil; built != pred[col] {
							t.Errorf("batch %d: column %s built %v, in the predicate %v", i+1, d.Schema[col].Name, built, pred[col])
						}
					}
				}
			})
		}
	}
}
