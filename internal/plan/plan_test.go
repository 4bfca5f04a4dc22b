package plan

import (
	"strings"
	"testing"

	"iolap/internal/agg"
	"iolap/internal/expr"
	"iolap/internal/rel"
)

var aggReg = agg.NewRegistry()

func sessionsSchema() rel.Schema {
	return rel.Schema{
		{Name: "session_id", Type: rel.KString},
		{Name: "buffer_time", Type: rel.KFloat},
		{Name: "play_time", Type: rel.KFloat},
	}
}

func mustAgg(t testing.TB, name string) *agg.Func {
	f, ok := aggReg.Lookup(name)
	if !ok {
		t.Fatalf("aggregate %s missing", name)
	}
	return f
}

// buildSBI constructs the paper's Figure 2(a) plan for Example 1:
//
//	SELECT AVG(play_time) FROM Sessions
//	WHERE buffer_time > (SELECT AVG(buffer_time) FROM Sessions)
func buildSBI(t testing.TB) (root Node, inner *Aggregate, sel *Select, outer *Aggregate) {
	t.Helper()
	avg := mustAgg(t, "AVG")
	innerScan := NewScan("sessions", "s_inner", sessionsSchema(), true)
	inner = NewAggregate(innerScan, nil, []AggSpec{{
		Fn:   avg,
		Arg:  expr.NewCol(1, "buffer_time", rel.KFloat),
		Name: "avg_buffer_time",
	}})
	outerScan := NewScan("sessions", "s", sessionsSchema(), true)
	join := NewJoin(outerScan, inner, nil, nil) // cross join, Fig 2(a) ¯
	sel = NewSelect(join, expr.NewCmp(expr.Gt,
		expr.NewCol(1, "buffer_time", rel.KFloat),
		expr.NewCol(3, "avg_buffer_time", rel.KFloat)))
	outer = NewAggregate(sel, nil, []AggSpec{{
		Fn:   avg,
		Arg:  expr.NewCol(2, "play_time", rel.KFloat),
		Name: "avg_play_time",
	}})
	return outer, inner, sel, outer
}

func TestSBISchemas(t *testing.T) {
	root, inner, sel, _ := buildSBI(t)
	if got := inner.Schema()[0].Name; got != "avg_buffer_time" {
		t.Errorf("inner agg schema = %v", inner.Schema())
	}
	if len(sel.Schema()) != 4 {
		t.Errorf("select schema width = %d, want 4", len(sel.Schema()))
	}
	if got := root.Schema()[0].Name; got != "avg_play_time" {
		t.Errorf("root schema = %v", root.Schema())
	}
}

func TestFinalizeAssignsUniqueIDs(t *testing.T) {
	root, _, _, _ := buildSBI(t)
	n := Finalize(root)
	if n != 6 {
		t.Fatalf("operator count = %d, want 6", n)
	}
	seen := map[int]bool{}
	Walk(root, func(nd Node) {
		if seen[nd.ID()] {
			t.Errorf("duplicate id %d", nd.ID())
		}
		seen[nd.ID()] = true
	})
	for i := 0; i < n; i++ {
		if !seen[i] {
			t.Errorf("missing id %d", i)
		}
	}
}

// TestSBIUncertaintyTagging checks the Section 4.1 propagation against the
// paper's Figure 3 annotations.
func TestSBIUncertaintyTagging(t *testing.T) {
	root, inner, sel, outer := buildSBI(t)
	n := Finalize(root)
	an, err := Analyze(root, n)
	if err != nil {
		t.Fatal(err)
	}
	// ­ (inner aggregate): output attribute uncertain, no tuple unc.
	ii := an.Info[inner.ID()]
	if !ii.UncertainCols[0] {
		t.Error("AVG(buffer_time) must be attribute-uncertain (Fig 3b)")
	}
	if ii.TupleUncertain {
		t.Error("inner aggregate output must not be tuple-uncertain (Fig 3b)")
	}
	if ii.AggSource[0] != inner.ID() {
		t.Errorf("lineage source = %d, want %d", ii.AggSource[0], inner.ID())
	}
	// ¯ (join): deterministic base columns + uncertain avg column, no
	// tuple uncertainty (Fig 3c).
	join := sel.Child
	ji := an.Info[join.ID()]
	wantUnc := []bool{false, false, false, true}
	for i, w := range wantUnc {
		if ji.UncertainCols[i] != w {
			t.Errorf("join col %d uncertain = %v, want %v", i, ji.UncertainCols[i], w)
		}
	}
	if ji.TupleUncertain {
		t.Error("join output must not be tuple-uncertain (Fig 3c)")
	}
	// ° (select): tuple-uncertain because the predicate reads the
	// uncertain average (Fig 3d).
	si := an.Info[sel.ID()]
	if !si.TupleUncertain {
		t.Error("select output must be tuple-uncertain (Fig 3d)")
	}
	// ± (outer aggregate): uncertain attribute and (conservatively)
	// tuple-uncertain output (Fig 3e).
	oi := an.Info[outer.ID()]
	if !oi.UncertainCols[0] {
		t.Error("AVG(play_time) must be attribute-uncertain (Fig 3e)")
	}
	if !oi.TupleUncertain {
		t.Error("outer aggregate must be (conservatively) tuple-uncertain")
	}
}

func TestFlatSPJAHasNoUncertainty(t *testing.T) {
	// SELECT AVG(play_time) FROM sessions WHERE buffer_time > 30
	scan := NewScan("sessions", "", sessionsSchema(), true)
	sel := NewSelect(scan, expr.NewCmp(expr.Gt,
		expr.NewCol(1, "buffer_time", rel.KFloat),
		expr.NewConst(rel.Float(30))))
	root := NewAggregate(sel, nil, []AggSpec{{
		Fn: mustAgg(t, "AVG"), Arg: expr.NewCol(2, "", rel.KFloat), Name: "a"}})
	n := Finalize(root)
	an, err := Analyze(root, n)
	if err != nil {
		t.Fatal(err)
	}
	if an.Info[sel.ID()].TupleUncertain {
		t.Error("deterministic predicate must not create tuple uncertainty")
	}
	if !an.Info[root.ID()].UncertainCols[0] {
		t.Error("aggregate on streamed data is still attribute-uncertain")
	}
	if an.Nested {
		t.Error("flat SPJA query misclassified as nested")
	}
}

func TestHasNestedAggregatesSBI(t *testing.T) {
	root, _, _, _ := buildSBI(t)
	n := Finalize(root)
	an, err := Analyze(root, n)
	if err != nil {
		t.Fatal(err)
	}
	if !an.Nested {
		t.Error("SBI must be classified as nested")
	}
}

// TestSubtreeFactsSBI: a streamed scan grows and a global aggregate does not,
// a join grows with either side, and Aggregated marks an aggregate and every
// operator above one.
func TestSubtreeFactsSBI(t *testing.T) {
	root, inner, sel, outer := buildSBI(t)
	an, err := Analyze(root, Finalize(root))
	if err != nil {
		t.Fatal(err)
	}
	join := sel.Child.(*Join)
	for _, c := range []struct {
		name             string
		n                Node
		grows, aggregate bool
	}{
		{"inner scan", inner.Child, true, false},
		{"inner aggregate", inner, false, true},
		{"outer scan", join.L, true, false},
		{"join", join, true, true},
		{"select", sel, true, true},
		{"outer aggregate", outer, false, true},
	} {
		info := an.Info[c.n.ID()]
		if info.Grows != c.grows || info.Aggregated != c.aggregate {
			t.Errorf("%s: Grows %v Aggregated %v, want %v %v", c.name, info.Grows, info.Aggregated, c.grows, c.aggregate)
		}
	}
}

func TestStaticScanIsComplete(t *testing.T) {
	scan := NewScan("dim", "", rel.Schema{{Name: "k", Type: rel.KInt}}, false)
	root := NewAggregate(scan, nil, []AggSpec{{
		Fn: mustAgg(t, "SUM"), Arg: expr.NewCol(0, "", rel.KInt), Name: "s"}})
	n := Finalize(root)
	an, err := Analyze(root, n)
	if err != nil {
		t.Fatal(err)
	}
	if an.Info[root.ID()].UncertainCols[0] {
		t.Error("aggregate over a fully-read static table is exact")
	}
}

func TestUncertainGroupByRejected(t *testing.T) {
	// Grouping by an uncertain aggregate output is outside the paper's
	// supported class (Section 3.3) and must be rejected.
	scan := NewScan("sessions", "", sessionsSchema(), true)
	inner := NewAggregate(scan, nil, []AggSpec{{
		Fn: mustAgg(t, "AVG"), Arg: expr.NewCol(1, "", rel.KFloat), Name: "a"}})
	root := NewAggregate(inner, []int{0}, []AggSpec{{
		Fn: mustAgg(t, "COUNT"), Name: "c"}})
	n := Finalize(root)
	if _, err := Analyze(root, n); err == nil {
		t.Error("uncertain group-by key must be rejected")
	}
}

func TestUncertainJoinKeyRejected(t *testing.T) {
	scan := NewScan("sessions", "", sessionsSchema(), true)
	inner := NewAggregate(scan, nil, []AggSpec{{
		Fn: mustAgg(t, "AVG"), Arg: expr.NewCol(1, "", rel.KFloat), Name: "a"}})
	other := NewScan("sessions", "o", sessionsSchema(), true)
	join := NewJoin(other, inner, []int{1}, []int{0}) // join on uncertain avg
	n := Finalize(join)
	if _, err := Analyze(join, n); err == nil {
		t.Error("uncertain join key must be rejected")
	}
}

// TestSBILineageBlocks checks the Section 6.1 example: the SBI plan divides
// into two lineage blocks, {¬,­} and {®,¯,°,±}.
func TestSBILineageBlocks(t *testing.T) {
	root, inner, _, _ := buildSBI(t)
	Finalize(root)
	blocks := lineageBlocks(root)
	if len(blocks) != 2 {
		t.Fatalf("block count = %d, want 2 (paper §6.1)", len(blocks))
	}
	var innerBlock, outerBlock *Block
	for i := range blocks {
		if blocks[i].CapAgg == inner.ID() {
			innerBlock = &blocks[i]
		} else {
			outerBlock = &blocks[i]
		}
	}
	if innerBlock == nil || len(innerBlock.Members) != 2 {
		t.Fatalf("inner block wrong: %+v", blocks)
	}
	if outerBlock == nil || len(outerBlock.Members) != 4 {
		t.Fatalf("outer block wrong: %+v", blocks)
	}
	if outerBlock.CapAgg != root.ID() {
		t.Errorf("outer block cap = %d, want root %d", outerBlock.CapAgg, root.ID())
	}
}

func TestScaleExp(t *testing.T) {
	root, inner, sel, _ := buildSBI(t)
	n := Finalize(root)
	exp := ScaleExp(root, n)
	if exp[inner.ID()] != 0 {
		t.Error("aggregate output resets the scale exponent")
	}
	if exp[sel.ID()] != 1 {
		t.Errorf("select exp = %d, want 1 (one streamed scan below)", exp[sel.ID()])
	}
	if exp[sel.Child.ID()] != 1 {
		t.Errorf("join exp = %d, want 1", exp[sel.Child.ID()])
	}
}

func TestValidateCatchesBadIndexes(t *testing.T) {
	scan := NewScan("sessions", "", sessionsSchema(), true)
	bad := NewSelect(scan, expr.NewCmp(expr.Gt,
		expr.NewCol(9, "", rel.KFloat), expr.NewConst(rel.Float(0))))
	Finalize(bad)
	if err := Validate(bad); err == nil {
		t.Error("out-of-range predicate column must be caught")
	}
	good := NewSelect(scan, expr.NewCmp(expr.Gt,
		expr.NewCol(1, "", rel.KFloat), expr.NewConst(rel.Float(0))))
	Finalize(good)
	if err := Validate(good); err != nil {
		t.Errorf("valid plan rejected: %v", err)
	}
}

func TestFormatAndDescribe(t *testing.T) {
	root, _, _, _ := buildSBI(t)
	Finalize(root)
	out := Format(root)
	for _, want := range []string{"Aggregate", "Select", "Join(cross)", "streamed"} {
		if !strings.Contains(out, want) {
			t.Errorf("Format missing %q:\n%s", want, out)
		}
	}
}

func TestStreamedScans(t *testing.T) {
	root, _, _, _ := buildSBI(t)
	Finalize(root)
	if got := len(StreamedScans(root)); got != 2 {
		t.Errorf("streamed scans = %d, want 2", got)
	}
}

func TestUnionSchemaMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("union of mismatched schemas must panic")
		}
	}()
	a := NewScan("a", "", rel.Schema{{Name: "x", Type: rel.KInt}}, false)
	b := NewScan("b", "", rel.Schema{{Name: "y", Type: rel.KString}}, false)
	NewUnion(a, b)
}

func TestUnionPropagation(t *testing.T) {
	mk := func(streamed bool) Node {
		scan := NewScan("sessions", "", sessionsSchema(), streamed)
		return NewProject(scan,
			[]expr.Expr{expr.NewCol(1, "", rel.KFloat)}, []string{"bt"})
	}
	u := NewUnion(mk(true), mk(false))
	n := Finalize(u)
	an, err := Analyze(u, n)
	if err != nil {
		t.Fatal(err)
	}
	info := an.Info[u.ID()]
	if info.UncertainCols[0] {
		t.Error("projection of base columns stays deterministic")
	}
	if !info.Incomplete {
		t.Error("union with one streamed side is incomplete")
	}
}

func TestProjectPropagatesUncertainty(t *testing.T) {
	scan := NewScan("sessions", "", sessionsSchema(), true)
	inner := NewAggregate(scan, nil, []AggSpec{{
		Fn: mustAgg(t, "AVG"), Arg: expr.NewCol(1, "", rel.KFloat), Name: "a"}})
	proj := NewProject(inner, []expr.Expr{
		expr.NewArith(expr.Mul, expr.NewCol(0, "a", rel.KFloat), expr.NewConst(rel.Float(2))),
		expr.NewConst(rel.Float(1)),
	}, []string{"double_avg", "one"})
	n := Finalize(proj)
	an, err := Analyze(proj, n)
	if err != nil {
		t.Fatal(err)
	}
	info := an.Info[proj.ID()]
	if !info.UncertainCols[0] {
		t.Error("expression over uncertain column must be uncertain")
	}
	if info.UncertainCols[1] {
		t.Error("constant column must stay deterministic")
	}
	// The computed column is not a bare reference: lineage source resets
	// and refresh re-evaluates the projection locally.
	if info.AggSource[0] != -1 {
		t.Error("computed columns should not claim a direct agg source")
	}
	// A bare column reference keeps the lineage source.
	bare := NewProject(inner, []expr.Expr{expr.NewCol(0, "a", rel.KFloat)}, []string{"a2"})
	n = Finalize(bare)
	an, err = Analyze(bare, n)
	if err != nil {
		t.Fatal(err)
	}
	if an.Info[bare.ID()].AggSource[0] != inner.ID() {
		t.Error("bare reference must keep its lineage source")
	}
}

// ---------------------------------------------------------------------------
// Appendix B rewrites

func TestDecomposeRewrite(t *testing.T) {
	// γ_{key, SUM(val)}( fact ⋈_key (subquery aggregate) )  — the Eq. 1/4
	// shape: the rewrite pushes a partial SUM below the join.
	factSchema := rel.Schema{
		{Name: "key", Type: rel.KInt},
		{Name: "val", Type: rel.KFloat},
	}
	fact := NewScan("fact", "", factSchema, true)
	sub := NewAggregate(NewScan("fact", "f2", factSchema, true), []int{0},
		[]AggSpec{{Fn: mustAgg(t, "AVG"), Arg: expr.NewCol(1, "", rel.KFloat), Name: "a"}})
	join := NewJoin(fact, sub, []int{0}, []int{0})
	root := NewAggregate(join, []int{0}, []AggSpec{{
		Fn: mustAgg(t, "SUM"), Arg: expr.NewCol(1, "", rel.KFloat), Name: "total"}})
	rw := NewRewriter(aggReg)
	out := rw.Rewrite(root)
	fp := Fingerprint(out)
	if !strings.Contains(fp, "__partial") {
		t.Errorf("decomposition did not fire:\n%s", fp)
	}
	// The top must still be an aggregate producing "total".
	top, ok := out.(*Aggregate)
	if !ok || top.Aggs[0].Name != "total" {
		t.Errorf("rewritten root wrong: %s", fp)
	}
	// And a partial aggregate must now sit below the join.
	j, ok := top.Child.(*Join)
	if !ok {
		t.Fatalf("expected join under root, got %s", fp)
	}
	if _, ok := j.L.(*Aggregate); !ok {
		t.Errorf("expected partial aggregate on the left join input: %s", fp)
	}
}

func TestDecomposeDoesNotFireOnAvg(t *testing.T) {
	factSchema := rel.Schema{
		{Name: "key", Type: rel.KInt},
		{Name: "val", Type: rel.KFloat},
	}
	fact := NewScan("fact", "", factSchema, true)
	sub := NewAggregate(NewScan("fact", "f2", factSchema, true), []int{0},
		[]AggSpec{{Fn: mustAgg(t, "AVG"), Arg: expr.NewCol(1, "", rel.KFloat), Name: "a"}})
	join := NewJoin(fact, sub, []int{0}, []int{0})
	root := NewAggregate(join, []int{0}, []AggSpec{{
		Fn: mustAgg(t, "AVG"), Arg: expr.NewCol(1, "", rel.KFloat), Name: "m"}})
	out := NewRewriter(aggReg).Rewrite(root)
	if strings.Contains(Fingerprint(out), "__partial") {
		t.Error("AVG is not decomposable by Eq. 1 and must not be rewritten")
	}
}

func TestFactorizationRewrite(t *testing.T) {
	dim := rel.Schema{{Name: "k", Type: rel.KInt}}
	mkScan := func(name string) Node { return NewScan(name, "", dim, false) }
	q := mkScan("q")
	j1 := NewJoin(q, mkScan("a"), []int{0}, []int{0})
	q2 := mkScan("q")
	j2 := NewJoin(q2, mkScan("b"), []int{0}, []int{0})
	u := NewUnion(j1, j2)
	out := NewRewriter(aggReg).Rewrite(u)
	if _, ok := out.(*Join); !ok {
		t.Errorf("factorization should hoist the shared join: %s", Fingerprint(out))
	}
	// Schema must be preserved.
	if !out.Schema().Equal(u.Schema()) {
		t.Errorf("rewrite changed schema: %s vs %s", out.Schema(), u.Schema())
	}
}

func TestRewriteIdentityOnSimplePlans(t *testing.T) {
	root, _, _, _ := buildSBI(t)
	before := Fingerprint(root)
	out := NewRewriter(aggReg).Rewrite(root)
	if Fingerprint(out) != before {
		t.Error("SBI (cross join on scalar subquery) should be unchanged")
	}
}

func TestScaleExpUnionTakesMax(t *testing.T) {
	// A union row is scaled once even when both sides stream.
	mk := func() Node { return NewScan("sessions", "", sessionsSchema(), true) }
	u := NewUnion(mk(), mk())
	n := Finalize(u)
	exp := ScaleExp(u, n)
	if exp[u.ID()] != 1 {
		t.Errorf("union scale exp = %d, want 1 (max, not sum)", exp[u.ID()])
	}
	// Joins multiply multiplicities: exponents add.
	j := NewJoin(mk(), mk(), nil, nil)
	n = Finalize(j)
	exp = ScaleExp(j, n)
	if exp[j.ID()] != 2 {
		t.Errorf("join scale exp = %d, want 2 (sum)", exp[j.ID()])
	}
}

func TestFingerprintIgnoresIDs(t *testing.T) {
	a, _, _, _ := buildSBI(t)
	b, _, _, _ := buildSBI(t)
	Finalize(a)
	// b never finalized: ids differ, fingerprints must not.
	if Fingerprint(a) != Fingerprint(b) {
		t.Error("fingerprint must be id-independent")
	}
}

func TestBlocksOnFlatPlan(t *testing.T) {
	// A flat SPJA query is a single lineage block capped by its aggregate.
	scan := NewScan("sessions", "", sessionsSchema(), true)
	sel := NewSelect(scan, expr.NewCmp(expr.Gt,
		expr.NewCol(1, "", rel.KFloat), expr.NewConst(rel.Float(0))))
	root := NewAggregate(sel, nil, []AggSpec{{
		Fn: mustAgg(t, "AVG"), Arg: expr.NewCol(2, "", rel.KFloat), Name: "a"}})
	Finalize(root)
	blocks := lineageBlocks(root)
	if len(blocks) != 1 {
		t.Fatalf("flat plan blocks = %d, want 1", len(blocks))
	}
	if len(blocks[0].Members) != 3 || blocks[0].CapAgg != root.ID() {
		t.Errorf("block wrong: %+v", blocks[0])
	}
}

func TestFormatAnnotated(t *testing.T) {
	root, inner, _, _ := buildSBI(t)
	n := Finalize(root)
	an, err := Analyze(root, n)
	if err != nil {
		t.Fatal(err)
	}
	out := FormatAnnotated(root, an)
	for _, want := range []string{
		"u#=T", // the select and outer aggregate are tuple-uncertain
		"uA{avg_buffer_time<-#" + itoa(inner.ID()) + "}", // lineage source
		"incomplete",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("annotated plan missing %q:\n%s", want, out)
		}
	}
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b [8]byte
	p := len(b)
	for i > 0 {
		p--
		b[p] = byte('0' + i%10)
		i /= 10
	}
	return string(b[p:])
}
