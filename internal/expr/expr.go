// Package expr implements the scalar expression language of the engine.
//
// Expressions evaluate in three modes, all against the same AST:
//
//   - Eval: the running value on D_i. Uncertain attributes (rel.Ref values)
//     are resolved through a Resolver to the producing aggregate's current
//     output — this is the lineage-based lazy evaluation of Section 6.
//   - EvalRep: the b-th bootstrap replicate; refs resolve to the replicate
//     output of the source aggregate, so uncertainty propagates through
//     arbitrary expressions, UDFs included.
//   - Interval/Tri: interval arithmetic over variation ranges R(u); a
//     predicate evaluates to a Kleene tri-state where Unknown means
//     "R(x) ∩ R(y) ≠ ∅" — the tuple joins the non-deterministic set
//     (Section 5).
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
	// Eval computes the running value. Ref-valued inputs are resolved via
	// res; res may be nil when the expression is statically deterministic.
	Eval(row []rel.Value, res Resolver) rel.Value
	// EvalRep computes the b-th bootstrap replicate of the expression.
	EvalRep(row []rel.Value, res Resolver, b int) rel.Value
	// Interval computes the variation range of the (numeric) expression.
	Interval(row []rel.Value, res Resolver) bootstrap.Interval
	// Tri evaluates the expression as a predicate under variation ranges.
	Tri(row []rel.Value, res Resolver) Tri
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

// resolveRep unwraps a possibly-Ref value to its b-th replicate value.
func resolveRep(v rel.Value, res Resolver, b int) rel.Value {
	if !v.IsRef() {
		return v
	}
	uv, ok := res.ResolveRef(v.Ref())
	if !ok {
		return rel.Null()
	}
	if b < len(uv.Reps) {
		return rel.Float(uv.Reps[b])
	}
	return uv.Value
}

// resolveInterval returns the variation range of a possibly-Ref value.
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
	return bootstrap.Interval{}, false
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

func (c *Col) EvalRep(row []rel.Value, res Resolver, b int) rel.Value {
	return resolveRep(row[c.Idx], res, b)
}

func (c *Col) Interval(row []rel.Value, res Resolver) bootstrap.Interval {
	iv, ok := resolveInterval(row[c.Idx], res)
	if !ok {
		panic(fmt.Sprintf("expr: interval of non-numeric column %s", c.Name))
	}
	return iv
}

func (c *Col) Tri(row []rel.Value, res Resolver) Tri {
	v := c.Eval(row, res)
	if v.Kind() == rel.KBool {
		return FromBool(v.Bool())
	}
	return False
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

func (c *Const) Eval([]rel.Value, Resolver) rel.Value         { return c.V }
func (c *Const) EvalRep([]rel.Value, Resolver, int) rel.Value { return c.V }
func (c *Const) Interval([]rel.Value, Resolver) bootstrap.Interval {
	if !c.V.IsNumeric() {
		panic("expr: interval of non-numeric constant")
	}
	return bootstrap.Point(c.V.Float())
}
func (c *Const) Tri([]rel.Value, Resolver) Tri {
	if c.V.Kind() == rel.KBool {
		return FromBool(c.V.Bool())
	}
	return False
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

func (e *Arith) EvalRep(row []rel.Value, res Resolver, b int) rel.Value {
	return arith(e.Op, e.L.EvalRep(row, res, b), e.R.EvalRep(row, res, b))
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

func (e *Arith) Tri(row []rel.Value, res Resolver) Tri { return False }

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
func (n *Neg) EvalRep(row []rel.Value, res Resolver, b int) rel.Value {
	v := n.E.EvalRep(row, res, b)
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
func (n *Neg) Tri([]rel.Value, Resolver) Tri { return False }
func (n *Neg) Cols(dst []int) []int          { return n.E.Cols(dst) }
func (n *Neg) Type() rel.Kind                { return n.E.Type() }
func (n *Neg) String() string                { return "(-" + n.E.String() + ")" }

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

func (e *Cmp) EvalRep(row []rel.Value, res Resolver, b int) rel.Value {
	return cmpValues(e.Op, e.L.EvalRep(row, res, b), e.R.EvalRep(row, res, b))
}

func (e *Cmp) Interval(row []rel.Value, res Resolver) bootstrap.Interval {
	panic("expr: Interval on boolean comparison")
}

// Tri resolves the comparison under variation ranges: when the operand
// ranges are disjoint the decision is deterministic across all remaining
// batches (the near-deterministic set of Section 5.1); otherwise Unknown.
func (e *Cmp) Tri(row []rel.Value, res Resolver) Tri {
	lNum := e.L.Type() == rel.KInt || e.L.Type() == rel.KFloat
	rNum := e.R.Type() == rel.KInt || e.R.Type() == rel.KFloat
	if !lNum || !rNum {
		// Non-numeric comparisons cannot involve uncertain attributes
		// (aggregates are numeric), so the point decision is final.
		v := e.Eval(row, res)
		return FromBool(!v.IsNull() && v.Bool())
	}
	a := e.L.Interval(row, res)
	b := e.R.Interval(row, res)
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
		v := e.Eval(row, res)
		return FromBool(!v.IsNull() && v.Bool())
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

func evalBool(e Expr, row []rel.Value, res Resolver) bool {
	v := e.Eval(row, res)
	return !v.IsNull() && v.Kind() == rel.KBool && v.Bool()
}

func (e *And) Eval(row []rel.Value, res Resolver) rel.Value {
	return rel.Bool(evalBool(e.L, row, res) && evalBool(e.R, row, res))
}
func (e *And) EvalRep(row []rel.Value, res Resolver, b int) rel.Value {
	l := e.L.EvalRep(row, res, b)
	r := e.R.EvalRep(row, res, b)
	return rel.Bool(!l.IsNull() && l.Bool() && !r.IsNull() && r.Bool())
}
func (e *And) Interval([]rel.Value, Resolver) bootstrap.Interval {
	panic("expr: Interval on boolean AND")
}
func (e *And) Tri(row []rel.Value, res Resolver) Tri {
	l := e.L.Tri(row, res)
	if l == False {
		return False
	}
	r := e.R.Tri(row, res)
	if r == False {
		return False
	}
	if l == True && r == True {
		return True
	}
	return Unknown
}
func (e *And) Cols(dst []int) []int { return e.R.Cols(e.L.Cols(dst)) }
func (e *And) Type() rel.Kind       { return rel.KBool }
func (e *And) String() string       { return fmt.Sprintf("(%s AND %s)", e.L, e.R) }

// Or is disjunction with Kleene semantics under uncertainty.
type Or struct{ L, R Expr }

// NewOr builds a disjunction.
func NewOr(l, r Expr) *Or { return &Or{L: l, R: r} }

func (e *Or) Eval(row []rel.Value, res Resolver) rel.Value {
	return rel.Bool(evalBool(e.L, row, res) || evalBool(e.R, row, res))
}
func (e *Or) EvalRep(row []rel.Value, res Resolver, b int) rel.Value {
	l := e.L.EvalRep(row, res, b)
	r := e.R.EvalRep(row, res, b)
	return rel.Bool((!l.IsNull() && l.Bool()) || (!r.IsNull() && r.Bool()))
}
func (e *Or) Interval([]rel.Value, Resolver) bootstrap.Interval {
	panic("expr: Interval on boolean OR")
}
func (e *Or) Tri(row []rel.Value, res Resolver) Tri {
	l := e.L.Tri(row, res)
	if l == True {
		return True
	}
	r := e.R.Tri(row, res)
	if r == True {
		return True
	}
	if l == False && r == False {
		return False
	}
	return Unknown
}
func (e *Or) Cols(dst []int) []int { return e.R.Cols(e.L.Cols(dst)) }
func (e *Or) Type() rel.Kind       { return rel.KBool }
func (e *Or) String() string       { return fmt.Sprintf("(%s OR %s)", e.L, e.R) }

// Not is logical negation.
type Not struct{ E Expr }

// NewNot builds a negation.
func NewNot(e Expr) *Not { return &Not{E: e} }

func (e *Not) Eval(row []rel.Value, res Resolver) rel.Value {
	return rel.Bool(!evalBool(e.E, row, res))
}
func (e *Not) EvalRep(row []rel.Value, res Resolver, b int) rel.Value {
	v := e.E.EvalRep(row, res, b)
	return rel.Bool(v.IsNull() || !v.Bool())
}
func (e *Not) Interval([]rel.Value, Resolver) bootstrap.Interval {
	panic("expr: Interval on boolean NOT")
}
func (e *Not) Tri(row []rel.Value, res Resolver) Tri {
	return e.E.Tri(row, res).Not()
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
		if evalBool(w.Cond, row, res) {
			return w.Then.Eval(row, res)
		}
	}
	if c.Else != nil {
		return c.Else.Eval(row, res)
	}
	return rel.Null()
}

func (c *Case) EvalRep(row []rel.Value, res Resolver, b int) rel.Value {
	for _, w := range c.Whens {
		v := w.Cond.EvalRep(row, res, b)
		if !v.IsNull() && v.Bool() {
			return w.Then.EvalRep(row, res, b)
		}
	}
	if c.Else != nil {
		return c.Else.EvalRep(row, res, b)
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
		t := w.Cond.Tri(row, res)
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
		merge(bootstrap.Point(0))
	}
	return out
}

func (c *Case) Tri(row []rel.Value, res Resolver) Tri {
	v := c.Eval(row, res)
	if v.Kind() == rel.KBool {
		return FromBool(v.Bool())
	}
	return False
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
func (e *In) EvalRep(row []rel.Value, res Resolver, b int) rel.Value {
	v := e.E.EvalRep(row, res, b)
	found := false
	for _, item := range e.List {
		if v.Equal(item.EvalRep(row, res, b)) {
			found = true
			break
		}
	}
	return rel.Bool(found != e.Inv)
}
func (e *In) Interval([]rel.Value, Resolver) bootstrap.Interval {
	panic("expr: Interval on IN")
}
func (e *In) Tri(row []rel.Value, res Resolver) Tri {
	v := e.Eval(row, res)
	return FromBool(v.Bool())
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
