package core

import (
	"fmt"
	"math/rand"
	"testing"

	"iolap/internal/agg"
	"iolap/internal/exec"
	"iolap/internal/expr"
	"iolap/internal/plan"
	"iolap/internal/rel"
)

// fuzzCase draws one plan and its options from rng: the table, the plan,
// then mode, batch count, trials and slack. The shapes include flat
// aggregation, scalar-subquery crosses, grouped decorrelated joins, unions
// and HAVING filters, with random aggregate functions, comparison operators
// and constants.
func fuzzCase(t testing.TB, name string, rng *rand.Rand, seed uint64) latticeCase {
	t.Helper()
	f := newPlanFuzzer(rng)
	root := f.gen()
	if _, err := plan.Analyze(root, plan.Finalize(root)); err != nil {
		t.Fatalf("%s: generated invalid plan: %v\n%s", name, err, plan.Format(root))
	}
	return latticeCase{
		name:     name,
		root:     root,
		db:       f.db,
		streamed: "fuzz",
		opts: Options{
			Mode:    []Mode{ModeIOLAP, ModeIOLAP, ModeOPT1, ModeHDA}[rng.Intn(4)],
			Batches: 2 + rng.Intn(5),
			Trials:  5 + rng.Intn(20),
			Seed:    seed,
			Slack:   []float64{0.5, 1, 2}[rng.Intn(3)],
		},
	}
}

// TestTheorem1PlanFuzz generates random plans directly over the plan
// algebra (bypassing the SQL planner) and checks every engine batch against
// the exact oracle, across all three modes. This is the broadest Theorem-1
// net: shapes include flat aggregation, scalar-subquery crosses, grouped
// decorrelated joins, unions and HAVING filters, with random aggregate
// functions, comparison operators, constants and batch counts.
func TestTheorem1PlanFuzz(t *testing.T) {
	if testing.Short() {
		t.Skip("long test")
	}
	rng := rand.New(rand.NewSource(4242))
	for trial := 0; trial < 60; trial++ {
		c := fuzzCase(t, fmt.Sprintf("trial %d", trial), rng, uint64(trial+1))
		t.Run(c.name, func(t *testing.T) { checkTheorem1(t, c) })
	}
}

// FuzzTheorem1Lattice draws one plan per seed and runs it through the
// execution lattice: the reference cell against the exact oracle, every
// other cell against the reference cell.
func FuzzTheorem1Lattice(f *testing.F) {
	for _, seed := range []int64{1, 2, 3, 99, 4242} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		runLattice(t, fuzzCase(t, "fuzz", rand.New(rand.NewSource(seed)), uint64(seed)))
	})
}

func clipStr(s string) string {
	if len(s) > 800 {
		return s[:800] + "..."
	}
	return s
}

// planFuzzer builds random supported plans over a synthetic table.
type planFuzzer struct {
	rng    *rand.Rand
	db     *exec.DB
	schema rel.Schema
	aggs   *agg.Registry
}

func newPlanFuzzer(rng *rand.Rand) *planFuzzer {
	schema := rel.Schema{
		{Name: "g", Type: rel.KString}, // low-cardinality group key
		{Name: "a", Type: rel.KFloat},
		{Name: "b", Type: rel.KFloat},
		{Name: "c", Type: rel.KInt},
	}
	table := rel.NewRelation(schema)
	n := 60 + rng.Intn(120)
	groups := []string{"x", "y", "z"}
	for i := 0; i < n; i++ {
		table.Append(
			rel.String(groups[rng.Intn(len(groups))]),
			rel.Float(float64(rng.Intn(2000))/10),
			rel.Float(float64(rng.Intn(500))/10),
			rel.Int(int64(rng.Intn(50))),
		)
	}
	db := exec.NewDB()
	db.Put("fuzz", table)
	return &planFuzzer{rng: rng, db: db, schema: schema, aggs: agg.NewRegistry()}
}

func (f *planFuzzer) scan() *plan.Scan {
	return plan.NewScan("fuzz", fmt.Sprintf("s%d", f.rng.Intn(1000)), f.schema, true)
}

func (f *planFuzzer) numCol() int { return 1 + f.rng.Intn(3) } // a, b or c

func (f *planFuzzer) aggSpec(argCol int, name string) plan.AggSpec {
	// Mostly smooth aggregates; occasionally MIN/MAX (exact, non-smooth).
	names := []string{"SUM", "COUNT", "AVG", "AVG", "VAR", "MIN", "MAX"}
	fn, _ := f.aggs.Lookup(names[f.rng.Intn(len(names))])
	sp := plan.AggSpec{Fn: fn, Name: name}
	if fn.TakesArg || f.rng.Intn(2) == 0 {
		sp.Arg = expr.NewCol(argCol, "", rel.KFloat)
	}
	if !fn.TakesArg {
		sp.Arg = nil
	}
	return sp
}

func (f *planFuzzer) cmpOp() expr.CmpOp {
	return []expr.CmpOp{expr.Lt, expr.Le, expr.Gt, expr.Ge}[f.rng.Intn(4)]
}

// gen picks one of the supported query shapes.
func (f *planFuzzer) gen() plan.Node {
	switch f.rng.Intn(5) {
	case 0:
		return f.flat()
	case 1:
		return f.scalarSubquery()
	case 2:
		return f.groupedSubquery()
	case 3:
		return f.unionShape()
	default:
		return f.havingShape()
	}
}

// flat: γ_{maybe g}(σ_c(S))
func (f *planFuzzer) flat() plan.Node {
	var node plan.Node = f.scan()
	if f.rng.Intn(2) == 0 {
		node = plan.NewSelect(node, expr.NewCmp(f.cmpOp(),
			expr.NewCol(f.numCol(), "", rel.KFloat),
			expr.NewConst(rel.Float(float64(f.rng.Intn(100))))))
	}
	var groupBy []int
	if f.rng.Intn(2) == 0 {
		groupBy = []int{0}
	}
	return plan.NewAggregate(node, groupBy, []plan.AggSpec{
		f.aggSpec(f.numCol(), "agg0"),
		f.aggSpec(f.numCol(), "agg1"),
	})
}

// scalarSubquery: γ(σ_{col cmp k*AGG}(S × γ_AGG(S)))
func (f *planFuzzer) scalarSubquery() plan.Node {
	avg, _ := f.aggs.Lookup([]string{"AVG", "SUM", "COUNT"}[f.rng.Intn(3)])
	inner := plan.NewAggregate(f.scan(), nil, []plan.AggSpec{{
		Fn: avg, Arg: expr.NewCol(f.numCol(), "", rel.KFloat), Name: "sub"}})
	join := plan.NewJoin(f.scan(), inner, nil, nil)
	factor := 0.2 + f.rng.Float64()
	pred := expr.NewCmp(f.cmpOp(),
		expr.NewCol(f.numCol(), "", rel.KFloat),
		expr.NewArith(expr.Mul, expr.NewConst(rel.Float(factor)),
			expr.NewCol(4, "", rel.KFloat))) // the subquery column
	sel := plan.NewSelect(join, pred)
	return plan.NewAggregate(sel, nil, []plan.AggSpec{f.aggSpec(f.numCol(), "out")})
}

// groupedSubquery: γ(σ_{col cmp ref}(S ⋈_g γ_{g,AGG}(S))) — the
// decorrelated correlated-subquery shape.
func (f *planFuzzer) groupedSubquery() plan.Node {
	avg, _ := f.aggs.Lookup("AVG")
	inner := plan.NewAggregate(f.scan(), []int{0}, []plan.AggSpec{{
		Fn: avg, Arg: expr.NewCol(f.numCol(), "", rel.KFloat), Name: "gavg"}})
	join := plan.NewJoin(f.scan(), inner, []int{0}, []int{0})
	pred := expr.NewCmp(f.cmpOp(),
		expr.NewCol(f.numCol(), "", rel.KFloat),
		expr.NewCol(5, "", rel.KFloat)) // inner agg value (4=key, 5=gavg)
	sel := plan.NewSelect(join, pred)
	groupBy := []int{0}
	if f.rng.Intn(3) == 0 {
		groupBy = nil
	}
	return plan.NewAggregate(sel, groupBy, []plan.AggSpec{f.aggSpec(f.numCol(), "out")})
}

// unionShape: γ(σ(S) ∪ σ(S))
func (f *planFuzzer) unionShape() plan.Node {
	mkSide := func() plan.Node {
		return plan.NewSelect(f.scan(), expr.NewCmp(f.cmpOp(),
			expr.NewCol(f.numCol(), "", rel.KFloat),
			expr.NewConst(rel.Float(float64(f.rng.Intn(120))))))
	}
	u := plan.NewUnion(mkSide(), mkSide())
	return plan.NewAggregate(u, []int{0}, []plan.AggSpec{f.aggSpec(f.numCol(), "out")})
}

// havingShape: γ'(σ_{agg cmp const}(γ_{g,AGG}(S)))
func (f *planFuzzer) havingShape() plan.Node {
	sum, _ := f.aggs.Lookup("SUM")
	inner := plan.NewAggregate(f.scan(), []int{0}, []plan.AggSpec{
		{Fn: sum, Arg: expr.NewCol(f.numCol(), "", rel.KFloat), Name: "s"}})
	// Threshold near the expected per-group sum so HAVING flips groups as
	// data accumulates.
	threshold := float64(500 + f.rng.Intn(4000))
	having := plan.NewSelect(inner, expr.NewCmp(f.cmpOp(),
		expr.NewCol(1, "", rel.KFloat),
		expr.NewConst(rel.Float(threshold))))
	count, _ := f.aggs.Lookup("COUNT")
	return plan.NewAggregate(having, nil, []plan.AggSpec{
		{Fn: count, Name: "n"},
		f.aggSpec(1, "m"),
	})
}
