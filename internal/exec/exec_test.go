package exec

import (
	"math"
	"testing"

	"iolap/internal/agg"
	"iolap/internal/expr"
	"iolap/internal/plan"
	"iolap/internal/rel"
)

var aggReg = agg.NewRegistry()

func mustAgg(t testing.TB, name string) *agg.Func {
	t.Helper()
	f, ok := aggReg.Lookup(name)
	if !ok {
		t.Fatalf("agg %s missing", name)
	}
	return f
}

func sessionsSchema() rel.Schema {
	return rel.Schema{
		{Name: "session_id", Type: rel.KString},
		{Name: "buffer_time", Type: rel.KFloat},
		{Name: "play_time", Type: rel.KFloat},
	}
}

// paperSessions returns the 6-row Sessions relation from Figure 2(b).
func paperSessions() *rel.Relation {
	r := rel.NewRelation(sessionsSchema())
	r.Append(rel.String("id1"), rel.Float(36), rel.Float(238))
	r.Append(rel.String("id2"), rel.Float(58), rel.Float(135))
	r.Append(rel.String("id3"), rel.Float(17), rel.Float(617))
	r.Append(rel.String("id4"), rel.Float(56), rel.Float(194))
	r.Append(rel.String("id5"), rel.Float(19), rel.Float(308))
	r.Append(rel.String("id6"), rel.Float(26), rel.Float(319))
	return r
}

func runPlan(t *testing.T, root plan.Node, db *DB) *rel.Relation {
	t.Helper()
	plan.Finalize(root)
	if err := plan.Validate(root); err != nil {
		t.Fatal(err)
	}
	out, err := Run(root, db)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestScanAndSelect(t *testing.T) {
	db := NewDB()
	db.Put("sessions", paperSessions())
	scan := plan.NewScan("sessions", "", sessionsSchema(), true)
	sel := plan.NewSelect(scan, expr.NewCmp(expr.Gt,
		expr.NewCol(1, "", rel.KFloat), expr.NewConst(rel.Float(30))))
	out := runPlan(t, sel, db)
	if out.Len() != 3 { // 36, 58, 56
		t.Errorf("selected %d rows, want 3", out.Len())
	}
}

func TestScanUnknownTable(t *testing.T) {
	db := NewDB()
	scan := plan.NewScan("nope", "", sessionsSchema(), false)
	plan.Finalize(scan)
	if _, err := Run(scan, db); err == nil {
		t.Error("unknown table must error")
	}
}

func TestProject(t *testing.T) {
	db := NewDB()
	db.Put("sessions", paperSessions())
	scan := plan.NewScan("sessions", "", sessionsSchema(), true)
	proj := plan.NewProject(scan, []expr.Expr{
		expr.NewArith(expr.Div, expr.NewCol(2, "", rel.KFloat), expr.NewCol(1, "", rel.KFloat)),
	}, []string{"ratio"})
	out := runPlan(t, proj, db)
	if out.Len() != 6 {
		t.Fatalf("rows = %d", out.Len())
	}
	if got := out.Tuples[0].Vals[0].Float(); math.Abs(got-238.0/36) > 1e-12 {
		t.Errorf("ratio = %v", got)
	}
}

func TestAggregateGlobalAndGrouped(t *testing.T) {
	db := NewDB()
	db.Put("sessions", paperSessions())
	scan := plan.NewScan("sessions", "", sessionsSchema(), true)
	global := plan.NewAggregate(scan, nil, []plan.AggSpec{
		{Fn: mustAgg(t, "AVG"), Arg: expr.NewCol(1, "", rel.KFloat), Name: "avg_bt"},
		{Fn: mustAgg(t, "COUNT"), Name: "n"},
		{Fn: mustAgg(t, "SUM"), Arg: expr.NewCol(2, "", rel.KFloat), Name: "total_pt"},
	})
	out := runPlan(t, global, db)
	if out.Len() != 1 {
		t.Fatalf("global agg rows = %d", out.Len())
	}
	vals := out.Tuples[0].Vals
	wantAvg := (36.0 + 58 + 17 + 56 + 19 + 26) / 6
	if got := vals[0].Float(); math.Abs(got-wantAvg) > 1e-12 {
		t.Errorf("avg = %v, want %v", got, wantAvg)
	}
	if vals[1].Float() != 6 {
		t.Errorf("count = %v", vals[1])
	}
	if vals[2].Float() != 238+135+617+194+308+319 {
		t.Errorf("sum = %v", vals[2])
	}
}

func TestAggregateMultiplicityWeighting(t *testing.T) {
	// Appendix A semantics: a tuple with multiplicity m contributes m
	// times. This is the scaling mechanism of Section 2.
	r := rel.NewRelation(sessionsSchema())
	r.AppendMult(3, rel.String("a"), rel.Float(10), rel.Float(100))
	r.AppendMult(1, rel.String("b"), rel.Float(20), rel.Float(200))
	db := NewDB()
	db.Put("sessions", r)
	scan := plan.NewScan("sessions", "", sessionsSchema(), true)
	root := plan.NewAggregate(scan, nil, []plan.AggSpec{
		{Fn: mustAgg(t, "COUNT"), Name: "n"},
		{Fn: mustAgg(t, "AVG"), Arg: expr.NewCol(1, "", rel.KFloat), Name: "avg_bt"},
	})
	out := runPlan(t, root, db)
	if got := out.Tuples[0].Vals[0].Float(); got != 4 {
		t.Errorf("count = %v, want 4", got)
	}
	wantAvg := (3*10.0 + 20) / 4
	if got := out.Tuples[0].Vals[1].Float(); got != wantAvg {
		t.Errorf("weighted avg = %v, want %v", got, wantAvg)
	}
}

func TestGroupBy(t *testing.T) {
	schema := rel.Schema{
		{Name: "cdn", Type: rel.KString},
		{Name: "x", Type: rel.KFloat},
	}
	r := rel.NewRelation(schema)
	r.Append(rel.String("a"), rel.Float(1))
	r.Append(rel.String("b"), rel.Float(2))
	r.Append(rel.String("a"), rel.Float(3))
	db := NewDB()
	db.Put("t", r)
	scan := plan.NewScan("t", "", schema, false)
	root := plan.NewAggregate(scan, []int{0}, []plan.AggSpec{
		{Fn: mustAgg(t, "SUM"), Arg: expr.NewCol(1, "", rel.KFloat), Name: "s"}})
	out := runPlan(t, root, db)
	if out.Len() != 2 {
		t.Fatalf("groups = %d", out.Len())
	}
	byKey := map[string]float64{}
	for _, tp := range out.Tuples {
		byKey[tp.Vals[0].Str()] = tp.Vals[1].Float()
	}
	if byKey["a"] != 4 || byKey["b"] != 2 {
		t.Errorf("group sums = %v", byKey)
	}
}

func TestAggregateSkipsNulls(t *testing.T) {
	schema := rel.Schema{{Name: "x", Type: rel.KFloat}}
	r := rel.NewRelation(schema)
	r.Append(rel.Float(10))
	r.Append(rel.Null())
	db := NewDB()
	db.Put("t", r)
	scan := plan.NewScan("t", "", schema, false)
	root := plan.NewAggregate(scan, nil, []plan.AggSpec{
		{Fn: mustAgg(t, "AVG"), Arg: expr.NewCol(0, "", rel.KFloat), Name: "a"},
		{Fn: mustAgg(t, "COUNT"), Name: "n"},
	})
	out := runPlan(t, root, db)
	if got := out.Tuples[0].Vals[0].Float(); got != 10 {
		t.Errorf("avg over non-nulls = %v, want 10", got)
	}
	if got := out.Tuples[0].Vals[1].Float(); got != 2 {
		t.Errorf("COUNT(*) counts null rows too: %v, want 2", got)
	}
}

func TestHashJoin(t *testing.T) {
	factSchema := rel.Schema{{Name: "k", Type: rel.KInt}, {Name: "v", Type: rel.KFloat}}
	dimSchema := rel.Schema{{Name: "k", Type: rel.KInt}, {Name: "name", Type: rel.KString}}
	fact := rel.NewRelation(factSchema)
	fact.Append(rel.Int(1), rel.Float(10))
	fact.Append(rel.Int(2), rel.Float(20))
	fact.Append(rel.Int(1), rel.Float(30))
	fact.Append(rel.Int(9), rel.Float(99)) // dangling
	dim := rel.NewRelation(dimSchema)
	dim.Append(rel.Int(1), rel.String("one"))
	dim.Append(rel.Int(2), rel.String("two"))
	db := NewDB()
	db.Put("fact", fact)
	db.Put("dim", dim)
	join := plan.NewJoin(
		plan.NewScan("fact", "", factSchema, true),
		plan.NewScan("dim", "", dimSchema, false),
		[]int{0}, []int{0})
	out := runPlan(t, join, db)
	if out.Len() != 3 {
		t.Fatalf("join rows = %d, want 3", out.Len())
	}
	// Multiplicities multiply.
	fact.Tuples[0].Mult = 2
	out = runPlan(t, join, db)
	var total float64
	for _, tp := range out.Tuples {
		total += tp.Mult
	}
	if total != 4 {
		t.Errorf("joined cardinality = %v, want 4", total)
	}
}

func TestCrossJoin(t *testing.T) {
	a := rel.NewRelation(rel.Schema{{Name: "x", Type: rel.KInt}})
	a.Append(rel.Int(1))
	a.Append(rel.Int(2))
	b := rel.NewRelation(rel.Schema{{Name: "y", Type: rel.KInt}})
	b.Append(rel.Int(10))
	db := NewDB()
	db.Put("a", a)
	db.Put("b", b)
	join := plan.NewJoin(
		plan.NewScan("a", "", a.Schema, false),
		plan.NewScan("b", "", b.Schema, false),
		nil, nil)
	out := runPlan(t, join, db)
	if out.Len() != 2 {
		t.Errorf("cross join rows = %d, want 2", out.Len())
	}
}

func TestUnion(t *testing.T) {
	s := rel.Schema{{Name: "x", Type: rel.KInt}}
	a := rel.NewRelation(s)
	a.Append(rel.Int(1))
	b := rel.NewRelation(s)
	b.Append(rel.Int(2))
	b.Append(rel.Int(1))
	db := NewDB()
	db.Put("a", a)
	db.Put("b", b)
	u := plan.NewUnion(
		plan.NewScan("a", "", s, false),
		plan.NewScan("b", "", s, false))
	out := runPlan(t, u, db)
	if out.Len() != 3 {
		t.Errorf("union rows = %d, want 3 (bag union keeps duplicates)", out.Len())
	}
}

// TestSBIEndToEnd runs the paper's Example 1 on the Figure 2(b) data.
// AVG(buffer_time) over all six rows is 35.33; rows with buffer_time above
// it are id1 (36), id2 (58), id4 (56); AVG(play_time) = (238+135+194)/3.
func TestSBIEndToEnd(t *testing.T) {
	db := NewDB()
	db.Put("sessions", paperSessions())
	avg := mustAgg(t, "AVG")
	inner := plan.NewAggregate(
		plan.NewScan("sessions", "si", sessionsSchema(), true),
		nil,
		[]plan.AggSpec{{Fn: avg, Arg: expr.NewCol(1, "", rel.KFloat), Name: "avg_bt"}})
	join := plan.NewJoin(plan.NewScan("sessions", "s", sessionsSchema(), true), inner, nil, nil)
	sel := plan.NewSelect(join, expr.NewCmp(expr.Gt,
		expr.NewCol(1, "", rel.KFloat), expr.NewCol(3, "", rel.KFloat)))
	root := plan.NewAggregate(sel, nil,
		[]plan.AggSpec{{Fn: avg, Arg: expr.NewCol(2, "", rel.KFloat), Name: "avg_pt"}})
	out := runPlan(t, root, db)
	if out.Len() != 1 {
		t.Fatalf("rows = %d", out.Len())
	}
	want := (238.0 + 135 + 194) / 3
	if got := out.Tuples[0].Vals[0].Float(); math.Abs(got-want) > 1e-9 {
		t.Errorf("SBI = %v, want %v", got, want)
	}
}

func TestAggregateHelperWithScale(t *testing.T) {
	// aggregate's scale parameter multiplies extensive results only.
	schema := rel.Schema{{Name: "x", Type: rel.KFloat}}
	in := rel.NewRelation(schema)
	in.Append(rel.Float(10))
	in.Append(rel.Float(20))
	scan := plan.NewScan("t", "", schema, true)
	node := plan.NewAggregate(scan, nil, []plan.AggSpec{
		{Fn: mustAgg(t, "SUM"), Arg: expr.NewCol(0, "", rel.KFloat), Name: "s"},
		{Fn: mustAgg(t, "AVG"), Arg: expr.NewCol(0, "", rel.KFloat), Name: "a"},
	})
	in.Schema = node.Child.Schema()
	out := (&executor{}).aggregate(in, node, 3)
	if got := out.Tuples[0].Vals[0].Float(); got != 90 {
		t.Errorf("scaled sum = %v, want 90", got)
	}
	if got := out.Tuples[0].Vals[1].Float(); got != 15 {
		t.Errorf("avg must ignore scale: %v, want 15", got)
	}
}

// TestRunScaledMatchesScaledRows holds RunScaled(root, D, m) to Q(D, m) read
// literally: Run over D with every streamed row at multiplicity m.
func TestRunScaledMatchesScaledRows(t *testing.T) {
	const m = 2.5
	sbi := func() plan.Node {
		avg := mustAgg(t, "AVG")
		inner := plan.NewAggregate(plan.NewScan("sessions", "si", sessionsSchema(), true), nil,
			[]plan.AggSpec{{Fn: avg, Arg: expr.NewCol(1, "", rel.KFloat), Name: "avg_bt"}})
		join := plan.NewJoin(plan.NewScan("sessions", "s", sessionsSchema(), true), inner, nil, nil)
		sel := plan.NewSelect(join, expr.NewCmp(expr.Gt,
			expr.NewCol(1, "", rel.KFloat), expr.NewCol(3, "", rel.KFloat)))
		return plan.NewAggregate(sel, nil, []plan.AggSpec{
			{Fn: avg, Arg: expr.NewCol(2, "", rel.KFloat), Name: "avg_pt"},
			{Fn: mustAgg(t, "SUM"), Arg: expr.NewCol(2, "", rel.KFloat), Name: "sum_pt"},
			{Fn: mustAgg(t, "COUNT"), Name: "n"},
		})
	}
	rowsRoot := func() plan.Node {
		return plan.NewSelect(plan.NewScan("sessions", "", sessionsSchema(), true), expr.NewCmp(expr.Gt,
			expr.NewCol(1, "", rel.KFloat), expr.NewConst(rel.Float(30))))
	}
	sessions := NewDB()
	sessions.Put("sessions", paperSessions())
	for _, c := range []struct {
		name     string
		root     plan.Node
		db       *DB
		streamed string
	}{
		{"sbi", sbi(), sessions, "sessions"},
		{"rows", rowsRoot(), sessions, "sessions"},
		{"fact_dim", factDimPlan(t), factDimDB(500, 7), "fact"},
	} {
		t.Run(c.name, func(t *testing.T) {
			plan.Finalize(c.root)
			got, err := NewExecutor(1).RunScaled(c.root, c.db, m)
			if err != nil {
				t.Fatal(err)
			}
			src, _ := c.db.Get(c.streamed)
			rows := rel.NewRelation(src.Schema)
			for _, tp := range src.Tuples {
				rows.AppendMult(m*tp.Mult, tp.Vals...)
			}
			db := NewDB()
			for _, name := range c.db.Tables() {
				r, _ := c.db.Get(name)
				db.Put(name, r)
			}
			db.Put(c.streamed, rows)
			if want := runPlan(t, c.root, db); !rel.EqualBag(got, want, 1e-9) {
				t.Errorf("RunScaled at m = %g:\n%s\nrows at multiplicity m:\n%s", m, got, want)
			}
		})
	}
}

// TestRunScaledRejectsMixedUnion: a union of a streamed and a static side has
// no single scale exponent, so RunScaled refuses it rather than scale the
// static rows by m.
func TestRunScaledRejectsMixedUnion(t *testing.T) {
	db := NewDB()
	db.Put("sessions", paperSessions())
	u := plan.NewUnion(
		plan.NewScan("sessions", "a", sessionsSchema(), true),
		plan.NewScan("sessions", "b", sessionsSchema(), false))
	plan.Finalize(u)
	x := NewExecutor(1)
	if _, err := x.RunScaled(u, db, 2); err == nil {
		t.Error("RunScaled at m = 2 accepted a union of a streamed and a static side")
	}
	out, err := x.RunScaled(u, db, 1)
	if err != nil {
		t.Fatalf("RunScaled at m = 1: %v", err)
	}
	if out.Len() != 12 {
		t.Errorf("RunScaled at m = 1: %d rows, want Run's 12", out.Len())
	}
}

func TestZeroMultiplicityTuplesIgnoredByAggregate(t *testing.T) {
	schema := rel.Schema{{Name: "x", Type: rel.KFloat}}
	in := rel.NewRelation(schema)
	in.AppendMult(0, rel.Float(1000))
	in.Append(rel.Float(10))
	scan := plan.NewScan("t", "", schema, true)
	node := plan.NewAggregate(scan, nil, []plan.AggSpec{
		{Fn: mustAgg(t, "MAX"), Arg: expr.NewCol(0, "", rel.KFloat), Name: "m"}})
	in.Schema = node.Child.Schema()
	out := (&executor{}).aggregate(in, node, 1)
	if got := out.Tuples[0].Vals[0].Float(); got != 10 {
		t.Errorf("max = %v; zero-multiplicity tuples are semantically absent", got)
	}
}

func TestErrorPropagation(t *testing.T) {
	// Errors (unknown tables) must bubble up through every operator kind.
	db := NewDB()
	bad := plan.NewScan("missing", "", sessionsSchema(), true)
	nodes := []plan.Node{
		plan.NewSelect(bad, expr.NewCmp(expr.Gt,
			expr.NewCol(1, "", rel.KFloat), expr.NewConst(rel.Float(0)))),
		plan.NewProject(bad, []expr.Expr{expr.NewCol(0, "", rel.KString)}, []string{"x"}),
		plan.NewJoin(bad, bad, nil, nil),
		plan.NewUnion(bad, bad),
		plan.NewAggregate(bad, nil, []plan.AggSpec{{Fn: mustAgg(t, "COUNT"), Name: "n"}}),
	}
	for _, n := range nodes {
		plan.Finalize(n)
		if _, err := Run(n, db); err == nil {
			t.Errorf("%T must propagate the scan error", n)
		}
	}
	// Join with a failing right side.
	good := plan.NewScan("ok", "", sessionsSchema(), false)
	db.Put("ok", rel.NewRelation(sessionsSchema()))
	j := plan.NewJoin(good, bad, nil, nil)
	plan.Finalize(j)
	if _, err := Run(j, db); err == nil {
		t.Error("join must propagate right-side errors")
	}
	u := plan.NewUnion(good, bad)
	plan.Finalize(u)
	if _, err := Run(u, db); err == nil {
		t.Error("union must propagate right-side errors")
	}
}

func TestHashJoinBuildSideSelection(t *testing.T) {
	// The executor builds on the smaller side; both code paths must give
	// the same result.
	s := rel.Schema{{Name: "k", Type: rel.KInt}}
	small := rel.NewRelation(s)
	small.Append(rel.Int(1))
	big := rel.NewRelation(s)
	for i := 0; i < 10; i++ {
		big.Append(rel.Int(int64(i % 3)))
	}
	db := NewDB()
	db.Put("small", small)
	db.Put("big", big)
	// small ⋈ big and big ⋈ small must agree on cardinality.
	j1 := plan.NewJoin(plan.NewScan("small", "a", s, false),
		plan.NewScan("big", "b", s, false), []int{0}, []int{0})
	j2 := plan.NewJoin(plan.NewScan("big", "a", s, false),
		plan.NewScan("small", "b", s, false), []int{0}, []int{0})
	plan.Finalize(j1)
	plan.Finalize(j2)
	r1, err := Run(j1, db)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(j2, db)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Len() != r2.Len() || r1.Len() != 3 { // key 1 appears 3x in big
		t.Errorf("join sides disagree: %d vs %d (want 3)", r1.Len(), r2.Len())
	}
}
