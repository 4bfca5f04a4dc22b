package expr

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"iolap/internal/bootstrap"
	"iolap/internal/rel"
)

// stubResolver maps a single ref to a fixed uncertain value.
type stubResolver struct {
	refs map[rel.Ref]UncValue
}

func (s *stubResolver) ResolveRef(r rel.Ref) (UncValue, bool) {
	uv, ok := s.refs[r]
	return uv, ok
}

func col(i int, k rel.Kind) *Col { return NewCol(i, "", k) }
func cf(f float64) *Const        { return NewConst(rel.Float(f)) }
func ci(i int64) *Const          { return NewConst(rel.Int(i)) }
func cs(s string) *Const         { return NewConst(rel.String(s)) }

func TestArithEval(t *testing.T) {
	row := []rel.Value{rel.Int(7), rel.Float(2)}
	cases := []struct {
		e    Expr
		want rel.Value
	}{
		{NewArith(Add, col(0, rel.KInt), ci(3)), rel.Int(10)},
		{NewArith(Sub, col(0, rel.KInt), ci(3)), rel.Int(4)},
		{NewArith(Mul, col(0, rel.KInt), ci(3)), rel.Int(21)},
		{NewArith(Div, col(0, rel.KInt), col(1, rel.KFloat)), rel.Float(3.5)},
		{NewArith(Mod, col(0, rel.KInt), ci(4)), rel.Int(3)},
		{NewArith(Add, col(0, rel.KInt), col(1, rel.KFloat)), rel.Float(9)},
		{NewNeg(col(0, rel.KInt)), rel.Int(-7)},
		{NewNeg(col(1, rel.KFloat)), rel.Float(-2)},
	}
	for _, c := range cases {
		got := c.e.Eval(row, nil)
		if !got.Equal(c.want) {
			t.Errorf("%s = %v, want %v", c.e, got, c.want)
		}
	}
}

func TestArithNullAndDivZero(t *testing.T) {
	row := []rel.Value{rel.Null()}
	if !NewArith(Add, col(0, rel.KFloat), cf(1)).Eval(row, nil).IsNull() {
		t.Error("NULL + 1 should be NULL")
	}
	if !NewArith(Div, cf(1), cf(0)).Eval(nil, nil).IsNull() {
		t.Error("1/0 should be NULL")
	}
	if !NewArith(Mod, ci(1), ci(0)).Eval(nil, nil).IsNull() {
		t.Error("1%0 should be NULL")
	}
}

func TestCmpEval(t *testing.T) {
	cases := []struct {
		e    Expr
		want bool
	}{
		{NewCmp(Eq, ci(1), cf(1)), true},
		{NewCmp(Ne, ci(1), cf(1)), false},
		{NewCmp(Lt, ci(1), ci(2)), true},
		{NewCmp(Le, ci(2), ci(2)), true},
		{NewCmp(Gt, ci(3), ci(2)), true},
		{NewCmp(Ge, ci(1), ci(2)), false},
		{NewCmp(Eq, cs("a"), cs("a")), true},
		{NewCmp(Lt, cs("a"), cs("b")), true},
		{NewCmp(Eq, NewConst(rel.Null()), ci(1)), false},
	}
	for _, c := range cases {
		got := c.e.Eval(nil, nil)
		if got.Bool() != c.want {
			t.Errorf("%s = %v, want %v", c.e, got, c.want)
		}
	}
}

func TestLogicEval(t *testing.T) {
	tt := NewConst(rel.Bool(true))
	ff := NewConst(rel.Bool(false))
	if !NewAnd(tt, tt).Eval(nil, nil).Bool() || NewAnd(tt, ff).Eval(nil, nil).Bool() {
		t.Error("AND wrong")
	}
	if !NewOr(ff, tt).Eval(nil, nil).Bool() || NewOr(ff, ff).Eval(nil, nil).Bool() {
		t.Error("OR wrong")
	}
	if NewNot(tt).Eval(nil, nil).Bool() || !NewNot(ff).Eval(nil, nil).Bool() {
		t.Error("NOT wrong")
	}
}

func TestRefLazyResolution(t *testing.T) {
	ref := rel.Ref{Op: 1, Key: "", Col: 0}
	res := &stubResolver{refs: map[rel.Ref]UncValue{
		ref: {Value: rel.Float(37), Reps: []float64{35, 39}, Range: bootstrap.Interval{Lo: 21.1, Hi: 53.9}},
	}}
	row := []rel.Value{rel.NewRef(ref), rel.Float(58)}
	c := col(0, rel.KFloat)
	if got := c.Eval(row, res); got.Float() != 37 {
		t.Errorf("lazy value = %v, want 37", got)
	}
	if got := c.Eval(row, rep(res, 0)); got.Float() != 35 {
		t.Errorf("replicate 0 = %v, want 35", got)
	}
	if got := c.Eval(row, rep(res, 1)); got.Float() != 39 {
		t.Errorf("replicate 1 = %v, want 39", got)
	}
	// Replicate index beyond reps falls back to the running value.
	if got := c.Eval(row, rep(res, 5)); got.Float() != 37 {
		t.Errorf("replicate overflow = %v, want 37", got)
	}
	iv := c.Interval(row, res)
	if iv.Lo != 21.1 || iv.Hi != 53.9 {
		t.Errorf("interval = %v", iv)
	}
	// Unknown ref resolves to NULL.
	row2 := []rel.Value{rel.NewRef(rel.Ref{Op: 9}), rel.Float(1)}
	if !c.Eval(row2, res).IsNull() {
		t.Error("missing ref should resolve to NULL")
	}
}

// TestSBIClassification reproduces the paper's running example (Example 2):
// with R(AVG(buffer_time)) = [21.1, 53.9], buffer_time 58 is always
// selected, 17 always filtered, 36 non-deterministic.
func TestSBIClassification(t *testing.T) {
	ref := rel.Ref{Op: 1}
	res := &stubResolver{refs: map[rel.Ref]UncValue{
		ref: {Value: rel.Float(37), Range: bootstrap.Interval{Lo: 21.1, Hi: 53.9}},
	}}
	pred := NewCmp(Gt, col(0, rel.KFloat), col(1, rel.KFloat))
	mk := func(bt float64) []rel.Value {
		return []rel.Value{rel.Float(bt), rel.NewRef(ref)}
	}
	if got := Decide(pred, mk(58), res); got != True {
		t.Errorf("t2 (58) = %v, want true (always selected)", got)
	}
	if got := Decide(pred, mk(17), res); got != False {
		t.Errorf("t3 (17) = %v, want false (always filtered)", got)
	}
	if got := Decide(pred, mk(36), res); got != Unknown {
		t.Errorf("t1 (36) = %v, want unknown (non-deterministic)", got)
	}
}

func TestTriComparisons(t *testing.T) {
	mkRes := func(lo, hi float64) (Resolver, []rel.Value) {
		ref := rel.Ref{Op: 1}
		res := &stubResolver{refs: map[rel.Ref]UncValue{
			ref: {Value: rel.Float((lo + hi) / 2), Range: bootstrap.Interval{Lo: lo, Hi: hi}},
		}}
		return res, []rel.Value{rel.NewRef(ref)}
	}
	u := col(0, rel.KFloat)
	cases := []struct {
		op       CmpOp
		lo, hi   float64
		constant float64
		want     Tri
	}{
		{Lt, 1, 2, 3, True},
		{Lt, 4, 5, 3, False},
		{Lt, 2, 4, 3, Unknown},
		{Le, 1, 3, 3, True},
		{Gt, 4, 5, 3, True},
		{Gt, 1, 2, 3, False},
		{Ge, 3, 5, 3, True},
		{Eq, 1, 2, 3, False},
		{Eq, 2, 4, 3, Unknown},
		{Ne, 1, 2, 3, True},
		{Ne, 2, 4, 3, Unknown},
	}
	for _, c := range cases {
		res, row := mkRes(c.lo, c.hi)
		e := NewCmp(c.op, u, cf(c.constant))
		if got := Decide(e, row, res); got != c.want {
			t.Errorf("[%v,%v] %s %v = %v, want %v", c.lo, c.hi, c.op, c.constant, got, c.want)
		}
	}
}

func TestTriStringComparisonIsExact(t *testing.T) {
	e := NewCmp(Eq, cs("cdn1"), cs("cdn1"))
	if Decide(e, nil, nil) != True {
		t.Error("string equality should be deterministic True")
	}
}

func TestKleeneLogic(t *testing.T) {
	ref := rel.Ref{Op: 1}
	res := &stubResolver{refs: map[rel.Ref]UncValue{
		ref: {Value: rel.Float(3), Range: bootstrap.Interval{Lo: 2, Hi: 4}},
	}}
	row := []rel.Value{rel.NewRef(ref)}
	unk := NewCmp(Gt, col(0, rel.KFloat), cf(3)) // unknown
	tt := NewConst(rel.Bool(true))
	ff := NewConst(rel.Bool(false))
	if got := Decide(NewAnd(unk, ff), row, res); got != False {
		t.Errorf("unknown AND false = %v, want false", got)
	}
	if got := Decide(NewAnd(unk, tt), row, res); got != Unknown {
		t.Errorf("unknown AND true = %v, want unknown", got)
	}
	if got := Decide(NewOr(unk, tt), row, res); got != True {
		t.Errorf("unknown OR true = %v, want true", got)
	}
	if got := Decide(NewOr(unk, ff), row, res); got != Unknown {
		t.Errorf("unknown OR false = %v, want unknown", got)
	}
	if got := Decide(NewNot(unk), row, res); got != Unknown {
		t.Errorf("NOT unknown = %v, want unknown", got)
	}
}

func TestIntervalThroughArithmetic(t *testing.T) {
	ref := rel.Ref{Op: 1}
	res := &stubResolver{refs: map[rel.Ref]UncValue{
		ref: {Value: rel.Float(10), Range: bootstrap.Interval{Lo: 8, Hi: 12}},
	}}
	row := []rel.Value{rel.NewRef(ref)}
	// 2*u + 1 over [8,12] => [17,25]
	e := NewArith(Add, NewArith(Mul, cf(2), col(0, rel.KFloat)), cf(1))
	iv := e.Interval(row, res)
	if iv.Lo != 17 || iv.Hi != 25 {
		t.Errorf("interval = %v, want [17,25]", iv)
	}
}

func TestCaseEval(t *testing.T) {
	e := NewCase([]Expr{
		NewCmp(Gt, col(0, rel.KFloat), cf(10)), cs("big"),
		NewCmp(Gt, col(0, rel.KFloat), cf(5)), cs("mid"),
	}, cs("small"))
	if got := e.Eval([]rel.Value{rel.Float(20)}, nil); got.Str() != "big" {
		t.Errorf("case big = %v", got)
	}
	if got := e.Eval([]rel.Value{rel.Float(7)}, nil); got.Str() != "mid" {
		t.Errorf("case mid = %v", got)
	}
	if got := e.Eval([]rel.Value{rel.Float(1)}, nil); got.Str() != "small" {
		t.Errorf("case small = %v", got)
	}
	noElse := NewCase([]Expr{NewCmp(Gt, col(0, rel.KFloat), cf(10)), cs("x")}, nil)
	if !noElse.Eval([]rel.Value{rel.Float(1)}, nil).IsNull() {
		t.Error("case without else should yield NULL")
	}
}

func TestCaseIntervalUnions(t *testing.T) {
	ref := rel.Ref{Op: 1}
	res := &stubResolver{refs: map[rel.Ref]UncValue{
		ref: {Value: rel.Float(3), Range: bootstrap.Interval{Lo: 2, Hi: 4}},
	}}
	row := []rel.Value{rel.NewRef(ref)}
	// Condition is unknown, so the interval must cover both branches.
	e := NewCase([]Expr{NewCmp(Gt, col(0, rel.KFloat), cf(3)), cf(100)}, cf(0))
	iv := e.Interval(row, res)
	if iv.Lo > 0 || iv.Hi < 100 {
		t.Errorf("case interval = %v, want to cover [0,100]", iv)
	}
}

func TestInList(t *testing.T) {
	e := NewIn(col(0, rel.KString), []Expr{cs("a"), cs("b")}, false)
	if !e.Eval([]rel.Value{rel.String("a")}, nil).Bool() {
		t.Error("'a' IN ('a','b')")
	}
	if e.Eval([]rel.Value{rel.String("c")}, nil).Bool() {
		t.Error("'c' IN ('a','b') should be false")
	}
	inv := NewIn(col(0, rel.KString), []Expr{cs("a")}, true)
	if !inv.Eval([]rel.Value{rel.String("c")}, nil).Bool() {
		t.Error("'c' NOT IN ('a')")
	}
}

func TestFuncRegistry(t *testing.T) {
	r := NewRegistry()
	f, ok := r.Lookup("abs")
	if !ok {
		t.Fatal("ABS not found (case-insensitive lookup)")
	}
	call, err := NewFunc(f, []Expr{cf(-3)})
	if err != nil {
		t.Fatal(err)
	}
	if got := call.Eval(nil, nil); got.Float() != 3 {
		t.Errorf("ABS(-3) = %v", got)
	}
	if _, err := NewFunc(f, nil); err == nil {
		t.Error("arity check should reject 0 args")
	}
	if err := r.Register(ScalarFunc{}); err == nil {
		t.Error("registering an invalid function should fail")
	}
}

func TestBuiltins(t *testing.T) {
	r := NewRegistry()
	eval := func(name string, args ...Expr) rel.Value {
		t.Helper()
		f, ok := r.Lookup(name)
		if !ok {
			t.Fatalf("%s not registered", name)
		}
		call, err := NewFunc(f, args)
		if err != nil {
			t.Fatal(err)
		}
		return call.Eval(nil, nil)
	}
	if eval("SQRT", cf(9)).Float() != 3 {
		t.Error("SQRT")
	}
	if eval("FLOOR", cf(2.7)).Float() != 2 {
		t.Error("FLOOR")
	}
	if eval("CEIL", cf(2.1)).Float() != 3 {
		t.Error("CEIL")
	}
	if eval("ROUND", cf(2.456), ci(1)).Float() != 2.5 {
		t.Error("ROUND with precision")
	}
	if eval("POW", cf(2), cf(10)).Float() != 1024 {
		t.Error("POW")
	}
	if eval("GREATEST", cf(1), cf(9), cf(4)).Float() != 9 {
		t.Error("GREATEST")
	}
	if eval("LEAST", cf(1), cf(9), cf(4)).Float() != 1 {
		t.Error("LEAST")
	}
	if eval("COALESCE", NewConst(rel.Null()), cf(5)).Float() != 5 {
		t.Error("COALESCE")
	}
	if eval("UPPER", cs("abc")).Str() != "ABC" {
		t.Error("UPPER")
	}
	if eval("LOWER", cs("ABC")).Str() != "abc" {
		t.Error("LOWER")
	}
	if eval("LENGTH", cs("abcd")).Int() != 4 {
		t.Error("LENGTH")
	}
	if eval("SUBSTR", cs("hello"), ci(2), ci(3)).Str() != "ell" {
		t.Error("SUBSTR")
	}
	if eval("CONCAT", cs("a"), cs("b")).Str() != "ab" {
		t.Error("CONCAT")
	}
	if eval("SIGN", cf(-5)).Float() != -1 {
		t.Error("SIGN")
	}
	if eval("IF", NewConst(rel.Bool(true)), cf(1), cf(2)).Float() != 1 {
		t.Error("IF")
	}
	if eval("EXP", cf(0)).Float() != 1 {
		t.Error("EXP")
	}
	if eval("LN", cf(1)).Float() != 0 {
		t.Error("LN")
	}
}

func TestUDFRegistration(t *testing.T) {
	r := NewRegistry()
	err := r.Register(ScalarFunc{
		Name: "ENGAGEMENT", MinArgs: 2, MaxArgs: 2, RetType: rel.KFloat,
		Fn: func(args []rel.Value) rel.Value {
			// A Conviva-style UDF: play time discounted by buffering.
			return rel.Float(args[0].Float() / (1 + args[1].Float()))
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	f, _ := r.Lookup("engagement")
	call, _ := NewFunc(f, []Expr{cf(100), cf(3)})
	if got := call.Eval(nil, nil); got.Float() != 25 {
		t.Errorf("UDF = %v, want 25", got)
	}
}

// Property: Decide never contradicts exact evaluation — if it says True or
// False, evaluating with any value inside the operand ranges must agree.
func TestTriSoundnessProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ops := []CmpOp{Eq, Ne, Lt, Le, Gt, Ge}
	for trial := 0; trial < 3000; trial++ {
		lo := float64(rng.Intn(20) - 10)
		hi := lo + float64(rng.Intn(8))
		c := float64(rng.Intn(20) - 10)
		op := ops[rng.Intn(len(ops))]
		ref := rel.Ref{Op: 1}
		// Pick a "true final value" inside the range.
		final := lo + rng.Float64()*(hi-lo)
		res := &stubResolver{refs: map[rel.Ref]UncValue{
			ref: {Value: rel.Float(final), Range: bootstrap.Interval{Lo: lo, Hi: hi}},
		}}
		row := []rel.Value{rel.NewRef(ref)}
		e := NewCmp(op, col(0, rel.KFloat), cf(c))
		tri := Decide(e, row, res)
		if tri == Unknown {
			continue
		}
		exact := e.Eval(row, res).Bool()
		if (tri == True) != exact {
			t.Fatalf("Decide=%v contradicts exact=%v for [%v,%v] %s %v (final=%v)",
				tri, exact, lo, hi, op, c, final)
		}
	}
}

func TestExprStrings(t *testing.T) {
	e := NewAnd(
		NewCmp(Gt, NewCol(0, "buffer_time", rel.KFloat), cf(30)),
		NewNot(NewCmp(Eq, cs("x"), cs("y"))),
	)
	s := e.String()
	for _, want := range []string{"buffer_time", ">", "AND", "NOT"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
}

func TestFuncIntervalConservative(t *testing.T) {
	r := NewRegistry()
	f, _ := r.Lookup("LN") // no IntervalFn
	ref := rel.Ref{Op: 1}
	res := &stubResolver{refs: map[rel.Ref]UncValue{
		ref: {Value: rel.Float(10), Range: bootstrap.Interval{Lo: 5, Hi: 20}},
	}}
	row := []rel.Value{rel.NewRef(ref)}
	call, _ := NewFunc(f, []Expr{col(0, rel.KFloat)})
	iv := call.Interval(row, res)
	if !math.IsInf(iv.Lo, -1) || !math.IsInf(iv.Hi, 1) {
		t.Errorf("uncertain arg without IntervalFn should widen to Full, got %v", iv)
	}
	// Deterministic args give a point even without IntervalFn.
	pt := func() bootstrap.Interval {
		call2, _ := NewFunc(f, []Expr{cf(math.E)})
		return call2.Interval(nil, nil)
	}()
	if math.Abs(pt.Lo-1) > 1e-12 || !pt.IsPoint() {
		t.Errorf("deterministic args should give a point interval, got %v", pt)
	}
}

func TestMonotoneIntervalFns(t *testing.T) {
	r := NewRegistry()
	f, _ := r.Lookup("ABS")
	iv := f.IntervalFn([]bootstrap.Interval{{Lo: -3, Hi: 2}})
	if iv.Lo != 0 || iv.Hi != 3 {
		t.Errorf("ABS interval over [-3,2] = %v, want [0,3]", iv)
	}
	sq, _ := r.Lookup("SQRT")
	iv = sq.IntervalFn([]bootstrap.Interval{{Lo: 4, Hi: 9}})
	if iv.Lo != 2 || iv.Hi != 3 {
		t.Errorf("SQRT interval = %v, want [2,3]", iv)
	}
}
