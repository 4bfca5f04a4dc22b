package expr

import (
	"math"
	"testing"

	"iolap/internal/bootstrap"
	"iolap/internal/rel"
)

// rep is the resolver under which Eval computes replicate b.
func rep(res Resolver, b int) Resolver { return &Replicate{Of: res, B: b} }

// repFixture builds a resolver with one uncertain value (reps [9, 11],
// running 10, range [8, 12]) and a row [ref, 5.0].
func repFixture() (Resolver, []rel.Value) {
	ref := rel.Ref{Op: 1}
	res := &stubResolver{refs: map[rel.Ref]UncValue{
		ref: {Value: rel.Float(10), Reps: []float64{9, 11}, Range: bootstrap.Interval{Lo: 8, Hi: 12}},
	}}
	return res, []rel.Value{rel.NewRef(ref), rel.Float(5)}
}

func TestEvalRepThroughArithmetic(t *testing.T) {
	res, row := repFixture()
	// (u + $1) * 2: replicate 0 = (9+5)*2 = 28, replicate 1 = 32.
	e := NewArith(Mul,
		NewArith(Add, col(0, rel.KFloat), col(1, rel.KFloat)),
		cf(2))
	if got := e.Eval(row, rep(res, 0)).Float(); got != 28 {
		t.Errorf("rep0 = %v, want 28", got)
	}
	if got := e.Eval(row, rep(res, 1)).Float(); got != 32 {
		t.Errorf("rep1 = %v, want 32", got)
	}
	if got := e.Eval(row, res).Float(); got != 30 {
		t.Errorf("running = %v, want 30", got)
	}
}

func TestEvalRepThroughComparisonAndLogic(t *testing.T) {
	res, row := repFixture()
	// u > 10: rep0 (9) false, rep1 (11) true.
	gt := NewCmp(Gt, col(0, rel.KFloat), cf(10))
	if gt.Eval(row, rep(res, 0)).Bool() {
		t.Error("rep0: 9 > 10 should be false")
	}
	if !gt.Eval(row, rep(res, 1)).Bool() {
		t.Error("rep1: 11 > 10 should be true")
	}
	tt := NewConst(rel.Bool(true))
	if !NewAnd(gt, tt).Eval(row, rep(res, 1)).Bool() {
		t.Error("AND rep eval")
	}
	if !NewOr(gt, tt).Eval(row, rep(res, 0)).Bool() {
		t.Error("OR rep eval")
	}
	if NewNot(tt).Eval(row, rep(res, 0)).Bool() {
		t.Error("NOT rep eval")
	}
	if NewNeg(col(0, rel.KFloat)).Eval(row, rep(res, 1)).Float() != -11 {
		t.Error("Neg rep eval")
	}
}

func TestEvalRepThroughCaseInFunc(t *testing.T) {
	res, row := repFixture()
	// CASE WHEN u > 10 THEN 1 ELSE 0 END flips per replicate.
	c := NewCase([]Expr{NewCmp(Gt, col(0, rel.KFloat), cf(10)), cf(1)}, cf(0))
	if c.Eval(row, rep(res, 0)).Float() != 0 || c.Eval(row, rep(res, 1)).Float() != 1 {
		t.Error("CASE must evaluate per replicate")
	}
	// Case without else, rep path.
	noElse := NewCase([]Expr{NewCmp(Gt, col(0, rel.KFloat), cf(100)), cf(1)}, nil)
	if !noElse.Eval(row, rep(res, 0)).IsNull() {
		t.Error("CASE without ELSE should be NULL per replicate too")
	}
	// IN per replicate: 9 in (9) true; 11 in (9) false.
	in := NewIn(col(0, rel.KFloat), []Expr{cf(9)}, false)
	if !in.Eval(row, rep(res, 0)).Bool() || in.Eval(row, rep(res, 1)).Bool() {
		t.Error("IN must evaluate per replicate")
	}
	// Function call per replicate.
	reg := NewRegistry()
	absF, _ := reg.Lookup("ABS")
	call, _ := NewFunc(absF, []Expr{NewNeg(col(0, rel.KFloat))})
	if call.Eval(row, rep(res, 1)).Float() != 11 {
		t.Error("Func must evaluate per replicate")
	}
}

func TestTriOnNonComparisons(t *testing.T) {
	res, row := repFixture()
	// Decide on a Col holding a boolean.
	boolRow := []rel.Value{rel.Bool(true)}
	if Decide(col(0, rel.KBool), boolRow, nil) != True {
		t.Error("bool col tri")
	}
	// Decide on a non-bool Const is False.
	if Decide(cf(3), nil, nil) != False {
		t.Error("numeric const tri should be false")
	}
	if Decide(NewConst(rel.Bool(true)), nil, nil) != True {
		t.Error("bool const tri")
	}
	// Without refs, IN, Func and Case decide by their value.
	in := NewIn(cf(1), []Expr{cf(1)}, false)
	if Decide(in, nil, nil) != True {
		t.Error("IN tri")
	}
	coalesce, _ := NewRegistry().Lookup("COALESCE")
	call, _ := NewFunc(coalesce, []Expr{NewConst(rel.Null()), NewConst(rel.Bool(true))})
	if Decide(call, nil, nil) != True {
		t.Error("Func tri")
	}
	caseB := NewCase([]Expr{NewConst(rel.Bool(true)), NewConst(rel.Bool(true))}, nil)
	if Decide(caseB, nil, nil) != True {
		t.Error("Case tri")
	}
	// Arith and Neg are not predicates: False.
	if Decide(NewArith(Add, cf(1), cf(1)), nil, nil) != False {
		t.Error("arith tri")
	}
	if Decide(NewNeg(cf(1)), row, res) != False {
		t.Error("neg tri")
	}
}

// TestDecideWaitsForPointRanges: an IN, a CASE and a call have no range
// rule, so over a ref whose range is not a point they stay Unknown whatever
// the running value says, and decide by that value once the range is a
// point.
func TestDecideWaitsForPointRanges(t *testing.T) {
	ref := rel.Ref{Op: 1}
	row := []rel.Value{rel.NewRef(ref)}
	at := func(lo, hi float64) Resolver {
		return &stubResolver{refs: map[rel.Ref]UncValue{
			ref: {Value: rel.Float(73), Range: bootstrap.Interval{Lo: lo, Hi: hi}},
		}}
	}
	u := col(0, rel.KFloat)
	coalesce, _ := NewRegistry().Lookup("COALESCE")
	call, _ := NewFunc(coalesce, []Expr{NewCmp(Gt, u, cf(74))})
	preds := []struct {
		name string
		e    Expr
		want Tri // at the point range [73, 73]
	}{
		{"in", NewIn(u, []Expr{cf(73), cf(51)}, false), True},
		{"not in", NewIn(u, []Expr{cf(73), cf(51)}, true), False},
		{"case", NewCase([]Expr{NewCmp(Gt, u, cf(74)), NewConst(rel.Bool(true))}, NewConst(rel.Bool(false))), False},
		{"call", call, False},
	}
	for _, p := range preds {
		if got := Decide(p.e, row, at(60, 90)); got != Unknown {
			t.Errorf("%s over [60, 90] = %v, want unknown", p.name, got)
		}
		if got := Decide(p.e, row, at(73, 73)); got != p.want {
			t.Errorf("%s over [73, 73] = %v, want %v", p.name, got, p.want)
		}
	}
	// A group not yet seen is open too.
	if got := Decide(preds[0].e, row, &stubResolver{}); got != Unknown {
		t.Errorf("in over a missing group = %v, want unknown", got)
	}
}

// TestFuncIntervalSkipsBooleanArgs: a call's non-numeric arguments are not
// asked for a range, and a call without an IntervalFn is a point only once
// they are settled.
func TestFuncIntervalSkipsBooleanArgs(t *testing.T) {
	ref := rel.Ref{Op: 1}
	row := []rel.Value{rel.NewRef(ref)}
	at := func(lo, hi float64) Resolver {
		return &stubResolver{refs: map[rel.Ref]UncValue{
			ref: {Value: rel.Float(80), Range: bootstrap.Interval{Lo: lo, Hi: hi}},
		}}
	}
	cond := NewCmp(Gt, col(0, rel.KFloat), cf(74))
	// COALESCE has no IntervalFn and takes any argument kind.
	coalesce, _ := NewRegistry().Lookup("COALESCE")
	c, _ := NewFunc(coalesce, []Expr{NewCase([]Expr{cond, cf(1)}, nil), cf(2)})
	if iv := c.Interval(row, at(60, 90)); !math.IsInf(iv.Lo, -1) || !math.IsInf(iv.Hi, 1) {
		t.Errorf("COALESCE over an open condition = %v, want Full", iv)
	}
	if iv := c.Interval(row, at(80, 80)); !iv.IsPoint() || iv.Lo != 1 {
		t.Errorf("COALESCE over a settled condition = %v, want [1, 1]", iv)
	}
}

// TestRepsFillsEveryReplicate: Reps evaluates replicate by replicate, with
// the running value past the source's replicates and NaN where a replicate
// is not numeric.
func TestRepsFillsEveryReplicate(t *testing.T) {
	res, row := repFixture()
	reps := make([]float64, 3)
	Reps(NewArith(Add, col(0, rel.KFloat), col(1, rel.KFloat)), row, res, reps)
	if reps[0] != 14 || reps[1] != 16 || reps[2] != 15 {
		t.Errorf("reps = %v, want [14 16 15]", reps)
	}
	Reps(NewCase([]Expr{NewCmp(Gt, col(0, rel.KFloat), cf(10)), cf(1)}, nil), row, res, reps[:2])
	if !math.IsNaN(reps[0]) || reps[1] != 1 {
		t.Errorf("reps = %v, want [NaN 1]", reps[:2])
	}
}

func TestIntervalPanicsOnBooleanNodes(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	b := NewCmp(Eq, cf(1), cf(1))
	mustPanic("cmp", func() { b.Interval(nil, nil) })
	mustPanic("and", func() { NewAnd(b, b).Interval(nil, nil) })
	mustPanic("or", func() { NewOr(b, b).Interval(nil, nil) })
	mustPanic("not", func() { NewNot(b).Interval(nil, nil) })
	mustPanic("in", func() { NewIn(cf(1), []Expr{cf(1)}, false).Interval(nil, nil) })
	mustPanic("string const", func() { cs("x").Interval(nil, nil) })
	mustPanic("string col", func() {
		col(0, rel.KString).Interval([]rel.Value{rel.String("x")}, nil)
	})
	mustPanic("nil resolver ref", func() {
		col(0, rel.KFloat).Eval([]rel.Value{rel.NewRef(rel.Ref{})}, nil)
	})
}

func TestIntervalDivAndModConservative(t *testing.T) {
	res, row := repFixture()
	// Division by an interval crossing zero widens to Full.
	e := NewArith(Div, cf(1), NewArith(Sub, col(0, rel.KFloat), cf(10)))
	iv := e.Interval(row, res) // u-10 spans [-2,2] around 0
	if !math.IsInf(iv.Lo, -1) || !math.IsInf(iv.Hi, 1) {
		t.Errorf("div across zero should be Full, got %v", iv)
	}
	// Mod is always conservative.
	m := NewArith(Mod, col(0, rel.KFloat), cf(3))
	iv = m.Interval(row, res)
	if !math.IsInf(iv.Lo, -1) {
		t.Errorf("mod interval should be Full, got %v", iv)
	}
}

func TestArithIntDivisionProducesFloat(t *testing.T) {
	e := NewArith(Div, ci(7), ci(2))
	if got := e.Eval(nil, nil); got.Float() != 3.5 {
		t.Errorf("7/2 = %v, want 3.5 (SQL-style real division)", got)
	}
	if e.Type() != rel.KFloat {
		t.Error("division type must be FLOAT")
	}
	if NewArith(Add, ci(1), ci(2)).Type() != rel.KInt {
		t.Error("int+int stays INT")
	}
	if NewArith(Add, ci(1), cf(2)).Type() != rel.KFloat {
		t.Error("int+float widens")
	}
}

func TestEvalRepDefaultsWithoutRefs(t *testing.T) {
	// Pure deterministic expressions: every replicate equals the value.
	e := NewArith(Mul, cf(3), cf(4))
	if e.Eval(nil, rep(nil, 17)).Float() != 12 {
		t.Error("deterministic replicate must match Eval")
	}
}

func TestCmpNaNNeverMatches(t *testing.T) {
	nan := NewConst(rel.Float(math.NaN()))
	for _, op := range []CmpOp{Lt, Le, Gt, Ge} {
		if NewCmp(op, nan, cf(1)).Eval(nil, nil).Bool() {
			t.Errorf("NaN %v 1 must be false", op)
		}
	}
}

func TestColStringAndOpStrings(t *testing.T) {
	if NewCol(3, "", rel.KFloat).String() != "$3" {
		t.Error("anonymous col rendering")
	}
	ops := map[string]Expr{
		"%": NewArith(Mod, ci(5), ci(2)),
		">": NewCmp(Gt, ci(1), ci(0)),
	}
	for want, e := range ops {
		if s := e.String(); !contains(s, want) {
			t.Errorf("%T rendering %q missing %q", e, s, want)
		}
	}
	if Unknown.String() != "unknown" || True.String() != "true" || False.String() != "false" {
		t.Error("Tri rendering")
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
