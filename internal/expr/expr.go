// Package expr implements the scalar expression language of the engine.
//
// An expression has one evaluator, Eval, and one range rule, Interval:
//
//   - Eval computes a value. Uncertain attributes (rel.Ref values) resolve
//     through a Resolver to the producing aggregate's output — the
//     lineage-based lazy evaluation of Section 6. Under the batch's
//     resolver that is the running value on D_i; under Replicate{res, b}
//     it is the b-th bootstrap replicate, so uncertainty propagates through
//     arbitrary expressions, UDFs included (Reps fills all B).
//   - Interval propagates variation ranges R(u) through numeric
//     expressions by interval arithmetic.
//
// Decide classifies a predicate under the ranges as a Kleene tri-state,
// where Unknown puts the tuple in the non-deterministic set (Section 5);
// Holds is the definite truth test under current values.
package expr

import (
	"fmt"
	"math"
	"strings"

	"iolap/internal/bootstrap"
	"iolap/internal/rel"
)

// UncValue is the resolved form of an uncertain attribute: the running
// value, its bootstrap replicate values, and its variation range.
type UncValue struct {
	Value rel.Value
	Reps  []float64
	Range bootstrap.Interval
}

// Resolver resolves lineage references against the current batch context.
type Resolver interface {
	// ResolveRef returns the current state of the referenced uncertain
	// aggregate output. ok=false means the group does not (yet) exist.
	ResolveRef(r rel.Ref) (UncValue, bool)
}

// Tri is Kleene three-valued logic.
type Tri uint8

const (
	False Tri = iota
	True
	Unknown
)

func (t Tri) String() string {
	switch t {
	case False:
		return "false"
	case True:
		return "true"
	}
	return "unknown"
}

// Not negates a tri-state.
func (t Tri) Not() Tri {
	switch t {
	case True:
		return False
	case False:
		return True
	}
	return Unknown
}

// FromBool lifts a bool to a Tri.
func FromBool(b bool) Tri {
	if b {
		return True
	}
	return False
}

// Expr is a scalar expression over a row.
type Expr interface {
	// Eval computes the value. Ref-valued inputs are resolved via res (the
	// running value, or a replicate under Replicate); res may be nil when
	// the expression is statically deterministic.
	Eval(row []rel.Value, res Resolver) rel.Value
	// Interval computes the variation range of the (numeric) expression.
	Interval(row []rel.Value, res Resolver) bootstrap.Interval
	// Cols appends the row column indexes the expression reads.
	Cols(dst []int) []int
	// Type reports the static result kind.
	Type() rel.Kind
	String() string
}

// resolve unwraps a possibly-Ref value to its running value.
func resolve(v rel.Value, res Resolver) rel.Value {
	if !v.IsRef() {
		return v
	}
	if res == nil {
		panic("expr: ref encountered with nil resolver")
	}
	uv, ok := res.ResolveRef(v.Ref())
	if !ok {
		return rel.Null()
	}
	return uv.Value
}

// Replicate resolves a lineage ref to replicate B of its source, or to the
// running value when the source keeps fewer replicates: Eval under it
// computes the B-th bootstrap replicate of an expression.
type Replicate struct {
	Of Resolver
	B  int
}

func (r *Replicate) ResolveRef(ref rel.Ref) (UncValue, bool) {
	uv, ok := r.Of.ResolveRef(ref)
	if ok && r.B < len(uv.Reps) {
		uv.Value = rel.Float(uv.Reps[r.B])
	}
	return uv, ok
}

// Reps fills reps[b] with replicate b of e over row, NaN where that
// replicate is not numeric.
func Reps(e Expr, row []rel.Value, res Resolver, reps []float64) {
	rep := &Replicate{Of: res}
	for b := range reps {
		rep.B = b
		if v := e.Eval(row, rep); v.IsNumeric() {
			reps[b] = v.Float()
		} else {
			reps[b] = math.NaN()
		}
	}
}

// resolveInterval returns the variation range of a possibly-Ref value. NULL
// has no value to bound: its range is Full, which never decides a
// comparison that NULL fails.
func resolveInterval(v rel.Value, res Resolver) (bootstrap.Interval, bool) {
	if v.IsRef() {
		uv, ok := res.ResolveRef(v.Ref())
		if !ok {
			return bootstrap.Full(), true
		}
		return uv.Range, true
	}
	if v.IsNumeric() {
		return bootstrap.Point(v.Float()), true
	}
	return bootstrap.Full(), v.IsNull()
}

// ---------------------------------------------------------------------------
// Predicates

// Holds reports whether predicate e is definitely true under current values:
// NULL and non-boolean values do not hold.
func Holds(e Expr, row []rel.Value, res Resolver) bool { return holds(e.Eval(row, res)) }

func holds(v rel.Value) bool { return v.Kind() == rel.KBool && v.Bool() }

// Decide classifies predicate e under variation ranges. AND, OR and NOT
// combine their operands' verdicts by Kleene logic; a comparison of two
// numeric operands decides by its operand ranges (Cmp.decideRanges); every
// other predicate decides by its value only when every lineage ref that
// value reads has a point range, and is Unknown until then.
func Decide(e Expr, row []rel.Value, res Resolver) Tri {
	switch e := e.(type) {
	case *And:
		return kleene(e.L, e.R, row, res, False)
	case *Or:
		return kleene(e.L, e.R, row, res, True)
	case *Not:
		return Decide(e.E, row, res).Not()
	case *Cmp:
		if isNumeric(e.L.Type()) && isNumeric(e.R.Type()) {
			return e.decideRanges(row, res)
		}
	}
	v, settled := evalSettled(e, row, res)
	if !settled {
		return Unknown
	}
	return FromBool(holds(v))
}

// kleene combines the verdicts of l and r, where dom (False for AND, True
// for OR) decides alone and r is not consulted once l is dom.
func kleene(l, r Expr, row []rel.Value, res Resolver, dom Tri) Tri {
	a := Decide(l, row, res)
	if a == dom {
		return dom
	}
	b := Decide(r, row, res)
	if b == dom || b == Unknown {
		return b
	}
	return a
}

func isNumeric(k rel.Kind) bool { return k == rel.KInt || k == rel.KFloat }

// evalSettled evaluates e and reports whether every lineage ref the
// evaluation read has a point range, i.e. whether the value is final.
func evalSettled(e Expr, row []rel.Value, res Resolver) (rel.Value, bool) {
	s := settleCheck{of: res}
	v := e.Eval(row, &s)
	return v, !s.open
}

// settleCheck resolves refs through of and records whether any of them
// lacks a point range (a group not yet seen counts as open).
type settleCheck struct {
	of   Resolver
	open bool
}

func (s *settleCheck) ResolveRef(ref rel.Ref) (UncValue, bool) {
	uv, ok := s.of.ResolveRef(ref)
	if !ok || !uv.Range.IsPoint() {
		s.open = true
	}
	return uv, ok
}

// ---------------------------------------------------------------------------
// Column reference

// Col reads a row column by index.
type Col struct {
	Idx  int
	Name string // display name, e.g. "sessions.buffer_time"
	Knd  rel.Kind
}

// NewCol builds a column reference.
func NewCol(idx int, name string, kind rel.Kind) *Col {
	return &Col{Idx: idx, Name: name, Knd: kind}
}

func (c *Col) Eval(row []rel.Value, res Resolver) rel.Value {
	return resolve(row[c.Idx], res)
}

func (c *Col) Interval(row []rel.Value, res Resolver) bootstrap.Interval {
	iv, ok := resolveInterval(row[c.Idx], res)
	if !ok {
		panic(fmt.Sprintf("expr: interval of non-numeric column %s", c.Name))
	}
	return iv
}

func (c *Col) Cols(dst []int) []int { return append(dst, c.Idx) }
func (c *Col) Type() rel.Kind       { return c.Knd }
func (c *Col) String() string {
	if c.Name != "" {
		return c.Name
	}
	return fmt.Sprintf("$%d", c.Idx)
}

// ---------------------------------------------------------------------------
// Constant

// Const is a literal.
type Const struct{ V rel.Value }

// NewConst builds a literal expression.
func NewConst(v rel.Value) *Const { return &Const{V: v} }

func (c *Const) Eval([]rel.Value, Resolver) rel.Value { return c.V }
func (c *Const) Interval([]rel.Value, Resolver) bootstrap.Interval {
	iv, ok := resolveInterval(c.V, nil)
	if !ok {
		panic("expr: interval of non-numeric constant")
	}
	return iv
}
func (c *Const) Cols(dst []int) []int { return dst }
func (c *Const) Type() rel.Kind       { return c.V.Kind() }
func (c *Const) String() string {
	if c.V.Kind() == rel.KString {
		return "'" + c.V.Str() + "'"
	}
	return c.V.String()
}

// ---------------------------------------------------------------------------
// Arithmetic

// ArithOp enumerates binary arithmetic operators.
type ArithOp uint8

const (
	Add ArithOp = iota
	Sub
	Mul
	Div
	Mod
)

func (op ArithOp) String() string {
	return [...]string{"+", "-", "*", "/", "%"}[op]
}

// Arith is a binary arithmetic node.
type Arith struct {
	Op   ArithOp
	L, R Expr
}

// NewArith builds an arithmetic expression.
func NewArith(op ArithOp, l, r Expr) *Arith { return &Arith{Op: op, L: l, R: r} }

func arith(op ArithOp, l, r rel.Value) rel.Value {
	if l.IsNull() || r.IsNull() {
		return rel.Null()
	}
	if !l.IsNumeric() || !r.IsNumeric() {
		panic(fmt.Sprintf("expr: arithmetic on %v and %v", l.Kind(), r.Kind()))
	}
	if l.Kind() == rel.KInt && r.Kind() == rel.KInt && op != Div {
		a, b := l.Int(), r.Int()
		switch op {
		case Add:
			return rel.Int(a + b)
		case Sub:
			return rel.Int(a - b)
		case Mul:
			return rel.Int(a * b)
		case Mod:
			if b == 0 {
				return rel.Null()
			}
			return rel.Int(a % b)
		}
	}
	a, b := l.Float(), r.Float()
	switch op {
	case Add:
		return rel.Float(a + b)
	case Sub:
		return rel.Float(a - b)
	case Mul:
		return rel.Float(a * b)
	case Div:
		if b == 0 {
			return rel.Null()
		}
		return rel.Float(a / b)
	case Mod:
		if b == 0 {
			return rel.Null()
		}
		ai, bi := int64(a), int64(b)
		return rel.Int(ai % bi)
	}
	panic("unreachable")
}

func (e *Arith) Eval(row []rel.Value, res Resolver) rel.Value {
	return arith(e.Op, e.L.Eval(row, res), e.R.Eval(row, res))
}

func (e *Arith) Interval(row []rel.Value, res Resolver) bootstrap.Interval {
	a := e.L.Interval(row, res)
	b := e.R.Interval(row, res)
	switch e.Op {
	case Add:
		return a.Add(b)
	case Sub:
		return a.Sub(b)
	case Mul:
		return a.Mul(b)
	case Div:
		return a.Div(b)
	case Mod:
		return bootstrap.Full()
	}
	panic("unreachable")
}

func (e *Arith) Cols(dst []int) []int { return e.R.Cols(e.L.Cols(dst)) }
func (e *Arith) Type() rel.Kind {
	if e.Op == Div {
		return rel.KFloat
	}
	if e.L.Type() == rel.KInt && e.R.Type() == rel.KInt {
		return rel.KInt
	}
	return rel.KFloat
}
func (e *Arith) String() string {
	return fmt.Sprintf("(%s %s %s)", e.L, e.Op, e.R)
}

// Neg is unary numeric negation.
type Neg struct{ E Expr }

// NewNeg builds a negation.
func NewNeg(e Expr) *Neg { return &Neg{E: e} }

func (n *Neg) Eval(row []rel.Value, res Resolver) rel.Value {
	v := n.E.Eval(row, res)
	if v.IsNull() {
		return v
	}
	if v.Kind() == rel.KInt {
		return rel.Int(-v.Int())
	}
	return rel.Float(-v.Float())
}
func (n *Neg) Interval(row []rel.Value, res Resolver) bootstrap.Interval {
	return n.E.Interval(row, res).Neg()
}
func (n *Neg) Cols(dst []int) []int { return n.E.Cols(dst) }
func (n *Neg) Type() rel.Kind       { return n.E.Type() }
func (n *Neg) String() string       { return "(-" + n.E.String() + ")" }

// ---------------------------------------------------------------------------
// Comparison

// CmpOp enumerates comparison operators.
type CmpOp uint8

const (
	Eq CmpOp = iota
	Ne
	Lt
	Le
	Gt
	Ge
)

func (op CmpOp) String() string {
	return [...]string{"=", "<>", "<", "<=", ">", ">="}[op]
}

// Mirror is the operator that gives the same verdict with its operands
// swapped: a < b exactly when b > a.
func (op CmpOp) Mirror() CmpOp {
	switch op {
	case Lt:
		return Gt
	case Le:
		return Ge
	case Gt:
		return Lt
	case Ge:
		return Le
	}
	return op
}

// Cmp is a binary comparison node.
type Cmp struct {
	Op   CmpOp
	L, R Expr
}

// NewCmp builds a comparison expression.
func NewCmp(op CmpOp, l, r Expr) *Cmp { return &Cmp{Op: op, L: l, R: r} }

func cmpValues(op CmpOp, l, r rel.Value) rel.Value {
	if l.IsNull() || r.IsNull() {
		return rel.Bool(false)
	}
	// NaN (e.g. AVG over an empty group) compares like NULL: no predicate
	// matches it. rel.Value.Compare would otherwise report NaN "equal" to
	// everything.
	if l.IsNumeric() && math.IsNaN(l.Float()) || r.IsNumeric() && math.IsNaN(r.Float()) {
		return rel.Bool(false)
	}
	c := l.Compare(r)
	var b bool
	switch op {
	case Eq:
		b = c == 0
	case Ne:
		b = c != 0
	case Lt:
		b = c < 0
	case Le:
		b = c <= 0
	case Gt:
		b = c > 0
	case Ge:
		b = c >= 0
	}
	return rel.Bool(b)
}

func (e *Cmp) Eval(row []rel.Value, res Resolver) rel.Value {
	return cmpValues(e.Op, e.L.Eval(row, res), e.R.Eval(row, res))
}

func (e *Cmp) Interval(row []rel.Value, res Resolver) bootstrap.Interval {
	panic("expr: Interval on boolean comparison")
}

// decideRanges classifies a comparison of two numeric operands under their
// variation ranges: when the ranges are disjoint the decision is
// deterministic across all remaining batches (the near-deterministic set of
// Section 5.1); otherwise Unknown.
func (e *Cmp) decideRanges(row []rel.Value, res Resolver) Tri {
	a := e.L.Interval(row, res)
	b := e.R.Interval(row, res)
	if math.IsNaN(a.Lo) || math.IsNaN(a.Hi) || math.IsNaN(b.Lo) || math.IsNaN(b.Hi) {
		// A NaN bound (0 × ∞ over an unbound range) bounds nothing, and
		// it fails every test below, which would decide = and <>.
		return Unknown
	}
	switch e.Op {
	case Lt:
		if a.Hi < b.Lo {
			return True
		}
		if a.Lo >= b.Hi {
			return False
		}
	case Le:
		if a.Hi <= b.Lo {
			return True
		}
		if a.Lo > b.Hi {
			return False
		}
	case Gt:
		if a.Lo > b.Hi {
			return True
		}
		if a.Hi <= b.Lo {
			return False
		}
	case Ge:
		if a.Lo >= b.Hi {
			return True
		}
		if a.Hi < b.Lo {
			return False
		}
	case Eq:
		if a.IsPoint() && b.IsPoint() {
			return FromBool(a.Lo == b.Lo)
		}
		if !a.Intersects(b) {
			return False
		}
	case Ne:
		if a.IsPoint() && b.IsPoint() {
			return FromBool(a.Lo != b.Lo)
		}
		if !a.Intersects(b) {
			return True
		}
	}
	if a.IsPoint() && b.IsPoint() {
		// Overlapping points: exact decision.
		return FromBool(Holds(e, row, res))
	}
	return Unknown
}

func (e *Cmp) Cols(dst []int) []int { return e.R.Cols(e.L.Cols(dst)) }
func (e *Cmp) Type() rel.Kind       { return rel.KBool }
func (e *Cmp) String() string {
	return fmt.Sprintf("(%s %s %s)", e.L, e.Op, e.R)
}

// ---------------------------------------------------------------------------
// Boolean connectives

// And is conjunction with Kleene semantics under uncertainty.
type And struct{ L, R Expr }

// NewAnd builds a conjunction.
func NewAnd(l, r Expr) *And { return &And{L: l, R: r} }

func (e *And) Eval(row []rel.Value, res Resolver) rel.Value {
	return rel.Bool(Holds(e.L, row, res) && Holds(e.R, row, res))
}
func (e *And) Interval([]rel.Value, Resolver) bootstrap.Interval {
	panic("expr: Interval on boolean AND")
}
func (e *And) Cols(dst []int) []int { return e.R.Cols(e.L.Cols(dst)) }
func (e *And) Type() rel.Kind       { return rel.KBool }
func (e *And) String() string       { return fmt.Sprintf("(%s AND %s)", e.L, e.R) }

// Or is disjunction with Kleene semantics under uncertainty.
type Or struct{ L, R Expr }

// NewOr builds a disjunction.
func NewOr(l, r Expr) *Or { return &Or{L: l, R: r} }

func (e *Or) Eval(row []rel.Value, res Resolver) rel.Value {
	return rel.Bool(Holds(e.L, row, res) || Holds(e.R, row, res))
}
func (e *Or) Interval([]rel.Value, Resolver) bootstrap.Interval {
	panic("expr: Interval on boolean OR")
}
func (e *Or) Cols(dst []int) []int { return e.R.Cols(e.L.Cols(dst)) }
func (e *Or) Type() rel.Kind       { return rel.KBool }
func (e *Or) String() string       { return fmt.Sprintf("(%s OR %s)", e.L, e.R) }

// Not is logical negation.
type Not struct{ E Expr }

// NewNot builds a negation.
func NewNot(e Expr) *Not { return &Not{E: e} }

func (e *Not) Eval(row []rel.Value, res Resolver) rel.Value {
	return rel.Bool(!Holds(e.E, row, res))
}
func (e *Not) Interval([]rel.Value, Resolver) bootstrap.Interval {
	panic("expr: Interval on boolean NOT")
}
func (e *Not) Cols(dst []int) []int { return e.E.Cols(dst) }
func (e *Not) Type() rel.Kind       { return rel.KBool }
func (e *Not) String() string       { return "(NOT " + e.E.String() + ")" }

// ---------------------------------------------------------------------------
// CASE WHEN

// Case is a searched CASE expression.
type Case struct {
	Whens []struct {
		Cond Expr
		Then Expr
	}
	Else Expr // may be nil (NULL)
}

// NewCase builds a searched CASE; pairs is (cond, then) alternating.
func NewCase(pairs []Expr, elseE Expr) *Case {
	if len(pairs)%2 != 0 || len(pairs) == 0 {
		panic("expr: NewCase needs (cond, then) pairs")
	}
	c := &Case{Else: elseE}
	for i := 0; i < len(pairs); i += 2 {
		c.Whens = append(c.Whens, struct {
			Cond Expr
			Then Expr
		}{pairs[i], pairs[i+1]})
	}
	return c
}

func (c *Case) Eval(row []rel.Value, res Resolver) rel.Value {
	for _, w := range c.Whens {
		if Holds(w.Cond, row, res) {
			return w.Then.Eval(row, res)
		}
	}
	if c.Else != nil {
		return c.Else.Eval(row, res)
	}
	return rel.Null()
}

func (c *Case) Interval(row []rel.Value, res Resolver) bootstrap.Interval {
	// The branch taken may flip under uncertainty: union of all branch
	// intervals whose condition is not definitely False.
	out := bootstrap.Interval{Lo: 0, Hi: 0}
	first := true
	merge := func(iv bootstrap.Interval) {
		if first {
			out = iv
			first = false
			return
		}
		if iv.Lo < out.Lo {
			out.Lo = iv.Lo
		}
		if iv.Hi > out.Hi {
			out.Hi = iv.Hi
		}
	}
	for _, w := range c.Whens {
		t := Decide(w.Cond, row, res)
		if t == False {
			continue
		}
		merge(w.Then.Interval(row, res))
		if t == True {
			return out
		}
	}
	if c.Else != nil {
		merge(c.Else.Interval(row, res))
	} else {
		merge(bootstrap.Full()) // NULL
	}
	return out
}

func (c *Case) Cols(dst []int) []int {
	for _, w := range c.Whens {
		dst = w.Cond.Cols(dst)
		dst = w.Then.Cols(dst)
	}
	if c.Else != nil {
		dst = c.Else.Cols(dst)
	}
	return dst
}

func (c *Case) Type() rel.Kind { return c.Whens[0].Then.Type() }

func (c *Case) String() string {
	var b strings.Builder
	b.WriteString("CASE")
	for _, w := range c.Whens {
		fmt.Fprintf(&b, " WHEN %s THEN %s", w.Cond, w.Then)
	}
	if c.Else != nil {
		fmt.Fprintf(&b, " ELSE %s", c.Else)
	}
	b.WriteString(" END")
	return b.String()
}

// ---------------------------------------------------------------------------
// IN (value list)

// In tests membership in a literal list.
type In struct {
	E    Expr
	List []Expr
	Inv  bool // NOT IN
}

// NewIn builds an IN-list predicate.
func NewIn(e Expr, list []Expr, inv bool) *In { return &In{E: e, List: list, Inv: inv} }

func (e *In) Eval(row []rel.Value, res Resolver) rel.Value {
	v := e.E.Eval(row, res)
	found := false
	for _, item := range e.List {
		if v.Equal(item.Eval(row, res)) {
			found = true
			break
		}
	}
	return rel.Bool(found != e.Inv)
}
func (e *In) Interval([]rel.Value, Resolver) bootstrap.Interval {
	panic("expr: Interval on IN")
}
func (e *In) Cols(dst []int) []int {
	dst = e.E.Cols(dst)
	for _, item := range e.List {
		dst = item.Cols(dst)
	}
	return dst
}
func (e *In) Type() rel.Kind { return rel.KBool }
func (e *In) String() string {
	var b strings.Builder
	b.WriteString(e.E.String())
	if e.Inv {
		b.WriteString(" NOT")
	}
	b.WriteString(" IN (")
	for i, item := range e.List {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(item.String())
	}
	b.WriteByte(')')
	return b.String()
}
