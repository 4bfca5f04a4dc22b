package exec

import (
	"fmt"
	"testing"

	"iolap/internal/cluster"
	"iolap/internal/expr"
	"iolap/internal/plan"
	"iolap/internal/rel"
)

func TestTablesSorted(t *testing.T) {
	db := NewDB()
	for _, name := range []string{"zeta", "alpha", "mid"} {
		db.Put(name, paperSessions())
	}
	got := db.Tables()
	want := []string{"alpha", "mid", "zeta"}
	if len(got) != len(want) {
		t.Fatalf("Tables() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Tables() = %v, want %v (map iteration order leaked)", got, want)
		}
	}
}

// TestAggregateResultKinds pins the contract between Aggregate's output values
// and the node's declared schema: a column declared KInt materialises as INT
// exactly when the computed value is integral (so mid-stream scaled counts
// never lose precision), and the planner's default KFloat declaration always
// materialises FLOAT — which is what keeps the exact oracle's column kinds
// aligned with the online engine's.
func TestAggregateResultKinds(t *testing.T) {
	scan := plan.NewScan("sessions", "", sessionsSchema(), true)
	node := plan.NewAggregate(scan, nil, []plan.AggSpec{
		{Fn: mustAgg(t, "COUNT"), Name: "n"},
		{Fn: mustAgg(t, "AVG"), Arg: expr.NewCol(1, "", rel.KFloat), Name: "avg_bt"},
	})
	node.Out[0].Type = rel.KInt

	out := (&executor{}).aggregate(paperSessions(), node, 1.0)
	vals := out.Tuples[0].Vals
	if vals[0].Kind() != rel.KInt || vals[0].Int() != 6 {
		t.Errorf("integral COUNT under KInt schema = %v (%s), want INT 6", vals[0], vals[0].Kind())
	}
	if vals[1].Kind() != rel.KFloat {
		t.Errorf("AVG = %v (%s), want FLOAT", vals[1], vals[1].Kind())
	}

	// Scaled mid-stream count 6 × 1.25 = 7.5 is not integral: the declared
	// KInt must not truncate it.
	scaled := (&executor{}).aggregate(paperSessions(), node, 1.25)
	sv := scaled.Tuples[0].Vals[0]
	if sv.Kind() != rel.KFloat || sv.Float() != 7.5 {
		t.Errorf("scaled COUNT under KInt schema = %v (%s), want FLOAT 7.5", sv, sv.Kind())
	}

	// The planner declares aggregate outputs KFloat; the default stays FLOAT
	// even for integral counts.
	def := plan.NewAggregate(scan, nil, []plan.AggSpec{{Fn: mustAgg(t, "COUNT"), Name: "n"}})
	dv := (&executor{}).aggregate(paperSessions(), def, 1.0).Tuples[0].Vals[0]
	if dv.Kind() != rel.KFloat || dv.Float() != 6 {
		t.Errorf("COUNT under default schema = %v (%s), want FLOAT 6", dv, dv.Kind())
	}
}

// ---------------------------------------------------------------------------
// Worker-count equivalence for the exact baseline

func factDimDB(nFact, nDim int) *DB {
	fact := rel.NewRelation(rel.Schema{
		{Name: "k", Type: rel.KInt},
		{Name: "v", Type: rel.KFloat},
	})
	for i := 0; i < nFact; i++ {
		fact.Append(rel.Int(int64(i%nDim)), rel.Float(float64((i*7919)%1000)+0.5))
	}
	dim := rel.NewRelation(rel.Schema{
		{Name: "k", Type: rel.KInt},
		{Name: "name", Type: rel.KString},
	})
	for i := 0; i < nDim; i++ {
		dim.Append(rel.Int(int64(i)), rel.String(fmt.Sprintf("dim-%03d", i)))
	}
	db := NewDB()
	db.Put("fact", fact)
	db.Put("dim", dim)
	return db
}

func factDimPlan(t *testing.T) plan.Node {
	t.Helper()
	factScan := plan.NewScan("fact", "", rel.Schema{
		{Name: "k", Type: rel.KInt},
		{Name: "v", Type: rel.KFloat},
	}, true)
	sel := plan.NewSelect(factScan, expr.NewCmp(expr.Gt,
		expr.NewCol(1, "", rel.KFloat), expr.NewConst(rel.Float(100))))
	dimScan := plan.NewScan("dim", "", rel.Schema{
		{Name: "k", Type: rel.KInt},
		{Name: "name", Type: rel.KString},
	}, false)
	join := plan.NewJoin(sel, dimScan, []int{0}, []int{0})
	// Join schema: fact.k, fact.v, dim.k, dim.name — group on name.
	root := plan.NewAggregate(join, []int{3}, []plan.AggSpec{
		{Fn: mustAgg(t, "SUM"), Arg: expr.NewCol(1, "", rel.KFloat), Name: "sv"},
		{Fn: mustAgg(t, "COUNT"), Name: "n"},
		{Fn: mustAgg(t, "AVG"), Arg: expr.NewCol(1, "", rel.KFloat), Name: "av"},
	})
	plan.Finalize(root)
	if err := plan.Validate(root); err != nil {
		t.Fatal(err)
	}
	return root
}

func assertRelIdentical(t *testing.T, a, b *rel.Relation) {
	t.Helper()
	if len(a.Tuples) != len(b.Tuples) {
		t.Fatalf("row counts differ: %d vs %d", len(a.Tuples), len(b.Tuples))
	}
	for i := range a.Tuples {
		ta, tb := a.Tuples[i], b.Tuples[i]
		if ta.Mult != tb.Mult || len(ta.Vals) != len(tb.Vals) {
			t.Fatalf("row %d: %v×%v vs %v×%v", i, ta.Vals, ta.Mult, tb.Vals, tb.Mult)
		}
		for c := range ta.Vals {
			va, vb := ta.Vals[c], tb.Vals[c]
			if va.Kind() != vb.Kind() || !va.Equal(vb) {
				t.Fatalf("row %d col %d: %v (%s) vs %v (%s)", i, c, va, va.Kind(), vb, vb.Kind())
			}
		}
	}
}

// TestRunWorkersEquivalence proves the exact baseline's parallel select, hash
// join and aggregation are bit-identical to the sequential paths: same output
// order, kinds, payloads and multiplicities at any worker count. The cutover
// is pinned per Executor instance (SetCutover) rather than through a package
// variable, so the forced sub-test cannot race with anything else under
// `go test -race -parallel`.
func TestRunWorkersEquivalence(t *testing.T) {
	run := func(t *testing.T, nFact, nDim, cutover int) {
		db := factDimDB(nFact, nDim)
		root := factDimPlan(t)
		seqEx, parEx := NewExecutor(1), NewExecutor(8)
		if cutover > 0 {
			seqEx.SetCutover(cutover)
			parEx.SetCutover(cutover)
		}
		seq, err := seqEx.Run(root, db)
		if err != nil {
			t.Fatal(err)
		}
		par, err := parEx.Run(root, db)
		if err != nil {
			t.Fatal(err)
		}
		if len(seq.Tuples) != nDim {
			t.Fatalf("expected one group per dim row, got %d", len(seq.Tuples))
		}
		assertRelIdentical(t, seq, par)
	}
	// Large fixture: the adaptive gate opens on its own.
	t.Run("production_threshold", func(t *testing.T) { run(t, 8192, 50, 0) })
	// Forced: every parallel site engages even on a small fixture.
	t.Run("forced", func(t *testing.T) { run(t, 300, 7, 1) })
}

// TestExecutorCutoverIsInstanceState pins the satellite fix for the old
// data race: two executors with different cutovers run concurrently without
// observing each other's configuration (the old package-level parThreshold
// made this a -race failure).
func TestExecutorCutoverIsInstanceState(t *testing.T) {
	t.Parallel()
	db := factDimDB(600, 9)
	root := factDimPlan(t)
	ref, err := RunWorkers(root, db, 1)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 8)
	for i := 0; i < 8; i++ {
		cut := 1 << uint(i%4) // 1, 2, 4, 8 — all forced parallel, all distinct
		go func(cut int) {
			x := NewExecutor(4)
			x.SetCutover(cut)
			out, err := x.Run(root, db)
			if err == nil {
				if len(out.Tuples) != len(ref.Tuples) {
					err = fmt.Errorf("row count %d, want %d", len(out.Tuples), len(ref.Tuples))
				}
			}
			done <- err
		}(cut)
	}
	for i := 0; i < 8; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// TestExecutorClocksEverySite pins the runner's clock on the exact executor:
// a select-join-aggregate plan moves exactly the classes it has sites of off
// their cold-start priors, and a pinned cutover (SetCutover) moves none.
func TestExecutorClocksEverySite(t *testing.T) {
	db, root := factDimDB(600, 9), factDimPlan(t)
	prior := cluster.NewCostModel(0).Snapshot()
	ran := map[string]bool{}
	for _, c := range []cluster.OpClass{cluster.CostSelect, cluster.CostJoinBuild, cluster.CostJoinProbe, cluster.CostFold} {
		ran[c.String()] = true
	}
	x := NewExecutor(4)
	for _, fixed := range []bool{false, true} {
		if fixed {
			x.SetCutover(1)
		}
		if _, err := x.Run(root, db); err != nil {
			t.Fatal(err)
		}
		for class, ns := range x.run.CostSnapshot() {
			if moved := ns != prior[class]; moved != (ran[class] && !fixed) {
				t.Errorf("fixed=%v: %s estimate %v (prior %v)", fixed, class, ns, prior[class])
			}
		}
	}
}
