// Columnar predicate evaluation (DESIGN.md §14). CompileVec lowers the
// deterministic predicate shapes the select operator sees most — columns,
// literals, comparisons and IN over them, AND/OR/NOT — into a form that
// evaluates whole column banks at a time, filling a selection slice
// instead of walking the expression tree per row. Everything outside that
// subset (arithmetic, CASE, UDFs) reports !ok and stays on the row path.
//
// Semantics are pinned to the row path's acceptance test: for every row,
// the compiled predicate produces exactly Holds(e, row, nil), including
// NULL-rejects-comparison, NaN-matches-nothing, cross-kind ordering by
// Kind, and NOT IN's NULL behaviour. The caller must ensure the batch
// carries no unresolved refs (rel.Columns.HasRefs) — the columnar path has
// no Resolver.
package expr

import (
	"math"

	"iolap/internal/rel"
)

// Vectorized is a compiled columnar predicate. It is immutable after
// compilation and safe for concurrent EvalCols calls over disjoint spans.
type Vectorized struct{ root vecNode }

// EvalCols fills pass[i-lo] with the acceptance verdict of row i for rows
// [lo, hi) of c. len(pass) must be hi-lo.
func (v *Vectorized) EvalCols(c *rel.Columns, lo, hi int, pass []bool) {
	v.root.eval(c, lo, hi, pass)
}

// Cols appends the column indices the compiled predicate reads (with
// repeats) — the bank set a subset columnar view must materialise before
// EvalCols may run.
func (v *Vectorized) Cols(dst []int) []int { return v.root.cols(dst) }

// CompileVec compiles a predicate for columnar evaluation; ok=false means
// the expression is outside the vectorizable subset and the caller keeps
// the row path.
func CompileVec(e Expr) (*Vectorized, bool) {
	n, ok := compileVecNode(e)
	if !ok {
		return nil, false
	}
	return &Vectorized{root: n}, true
}

type vecNode interface {
	eval(c *rel.Columns, lo, hi int, pass []bool)
	cols(dst []int) []int
}

func compileVecNode(e Expr) (vecNode, bool) {
	switch e := e.(type) {
	case *Const:
		return vecConst{b: holds(e.V)}, true
	case *Col:
		return vecBoolCol{idx: e.Idx}, true
	case *Cmp:
		return compileVecCmp(e)
	case *And:
		l, ok := compileVecNode(e.L)
		if !ok {
			return nil, false
		}
		r, ok := compileVecNode(e.R)
		if !ok {
			return nil, false
		}
		return vecAnd{l: l, r: r}, true
	case *Or:
		l, ok := compileVecNode(e.L)
		if !ok {
			return nil, false
		}
		r, ok := compileVecNode(e.R)
		if !ok {
			return nil, false
		}
		return vecOr{l: l, r: r}, true
	case *Not:
		n, ok := compileVecNode(e.E)
		if !ok {
			return nil, false
		}
		return vecNot{e: n}, true
	case *In:
		col, ok := e.E.(*Col)
		if !ok {
			return nil, false
		}
		items := make([]rel.Value, len(e.List))
		for i, item := range e.List {
			c, ok := item.(*Const)
			if !ok {
				return nil, false
			}
			items[i] = c.V
		}
		return vecIn{idx: col.Idx, items: items, inv: e.Inv}, true
	}
	return nil, false
}

func compileVecCmp(e *Cmp) (vecNode, bool) {
	lc, lIsCol := e.L.(*Col)
	rc, rIsCol := e.R.(*Col)
	lv, lIsConst := e.L.(*Const)
	rv, rIsConst := e.R.(*Const)
	switch {
	case lIsConst && rIsConst:
		return vecConst{b: cmpValues(e.Op, lv.V, rv.V).Bool()}, true
	case lIsCol && rIsConst:
		return colCmp{op: e.Op, idx: lc.Idx, cv: rv.V}, true
	case lIsConst && rIsCol:
		// const OP col normalises to col mirror(OP) const: Compare is
		// antisymmetric, so the verdicts are identical row for row.
		return colCmp{op: e.Op.Mirror(), idx: rc.Idx, cv: lv.V}, true
	case lIsCol && rIsCol:
		return colColCmp{op: e.Op, li: lc.Idx, ri: rc.Idx}, true
	}
	return nil, false
}

// cmpVerdict applies a comparison operator to a three-way compare result —
// the tail of cmpValues.
func cmpVerdict(op CmpOp, c int) bool {
	switch op {
	case Eq:
		return c == 0
	case Ne:
		return c != 0
	case Lt:
		return c < 0
	case Le:
		return c <= 0
	case Gt:
		return c > 0
	case Ge:
		return c >= 0
	}
	return false
}

func fillPass(pass []bool, v bool) {
	for i := range pass {
		pass[i] = v
	}
}

// vecConst is a predicate with a row-independent verdict (literals and
// folded const-const comparisons).
type vecConst struct{ b bool }

func (n vecConst) eval(_ *rel.Columns, _, _ int, pass []bool) { fillPass(pass, n.b) }

// vecBoolCol accepts rows whose cell is a present boolean true — a bare
// column used as a predicate.
type vecBoolCol struct{ idx int }

func (n vecBoolCol) eval(c *rel.Columns, lo, hi int, pass []bool) {
	b := &c.Banks[n.idx]
	if b.Mixed != nil {
		for i := range pass {
			v := b.Mixed[lo+i]
			pass[i] = holds(v)
		}
		return
	}
	if b.Kind != rel.KBool {
		fillPass(pass, false)
		return
	}
	ints := b.Ints[lo:hi]
	if b.Valid == nil {
		for i, x := range ints {
			pass[i] = x != 0
		}
		return
	}
	for i, x := range ints {
		pass[i] = x != 0 && b.Valid.Get(lo+i)
	}
}

// colCmp compares a column against a literal.
type colCmp struct {
	op  CmpOp
	idx int
	cv  rel.Value
}

func (n colCmp) eval(c *rel.Columns, lo, hi int, pass []bool) {
	b := &c.Banks[n.idx]
	if b.Mixed != nil {
		for i := range pass {
			pass[i] = cmpValues(n.op, b.Mixed[lo+i], n.cv).Bool()
		}
		return
	}
	if n.cv.IsNull() || b.Kind == rel.KNull {
		fillPass(pass, false)
		return
	}
	// A NaN operand rejects every comparison before cross-kind ordering is
	// even consulted (cmpValues checks NaN ahead of Compare).
	if n.cv.IsNumeric() && math.IsNaN(n.cv.Float()) {
		fillPass(pass, false)
		return
	}
	valid := b.Valid
	switch {
	case (b.Kind == rel.KInt || b.Kind == rel.KFloat) && n.cv.IsNumeric():
		cf := n.cv.Float()
		if b.Kind == rel.KFloat {
			floatCmpSpan(n.op, b.Floats[lo:hi], cf, pass)
		} else {
			intCmpSpan(n.op, b.Ints[lo:hi], cf, pass)
		}
		maskValid(pass, valid, lo)
	case b.Kind == rel.KString && n.cv.Kind() == rel.KString:
		// One three-way compare per dictionary entry, then a code-indexed
		// gather over the span — the dictionary encoding's native win.
		cs := n.cv.Str()
		verdict := make([]bool, len(b.Dict))
		for code, s := range b.Dict {
			c := 0
			switch {
			case s < cs:
				c = -1
			case s > cs:
				c = 1
			}
			verdict[code] = cmpVerdict(n.op, c)
		}
		codes := b.Codes[lo:hi]
		if valid == nil {
			for i, code := range codes {
				pass[i] = verdict[code]
			}
			return
		}
		for i, code := range codes {
			pass[i] = verdict[code] && valid.Get(lo+i)
		}
	case b.Kind == rel.KBool && n.cv.Kind() == rel.KBool:
		ci := int64(0)
		if n.cv.Bool() {
			ci = 1
		}
		ints := b.Ints[lo:hi]
		for i, x := range ints {
			c := 0
			switch {
			case x < ci:
				c = -1
			case x > ci:
				c = 1
			}
			pass[i] = cmpVerdict(n.op, c)
		}
		maskValid(pass, valid, lo)
	default:
		// Cross-kind, not both numeric: Compare orders by Kind, so every
		// present row gets the same verdict.
		kc := 0
		switch {
		case b.Kind < n.cv.Kind():
			kc = -1
		case b.Kind > n.cv.Kind():
			kc = 1
		}
		v := cmpVerdict(n.op, kc)
		if !v {
			fillPass(pass, false)
			return
		}
		if b.Kind == rel.KFloat {
			// Cross-kind against a float bank: NaN cells still match nothing.
			col := b.Floats[lo:hi]
			for i, x := range col {
				pass[i] = x == x && (valid == nil || valid.Get(lo+i))
			}
			return
		}
		if valid == nil {
			fillPass(pass, true)
			return
		}
		for i := range pass {
			pass[i] = valid.Get(lo + i)
		}
	}
}

// floatCmpSpan compares a float span against a finite literal. NULL cells
// are masked afterwards; NaN cells fail every operator inline (for Ne via
// the x == x self-test, the others naturally).
func floatCmpSpan(op CmpOp, col []float64, cf float64, pass []bool) {
	switch op {
	case Eq:
		for i, x := range col {
			pass[i] = x == cf
		}
	case Ne:
		for i, x := range col {
			pass[i] = x == x && x != cf
		}
	case Lt:
		for i, x := range col {
			pass[i] = x < cf
		}
	case Le:
		for i, x := range col {
			pass[i] = x <= cf
		}
	case Gt:
		for i, x := range col {
			pass[i] = x > cf
		}
	case Ge:
		for i, x := range col {
			pass[i] = x >= cf
		}
	}
}

// intCmpSpan compares an int span against a numeric literal. Compare
// widens both numeric operands to float64, so the span does too.
func intCmpSpan(op CmpOp, col []int64, cf float64, pass []bool) {
	switch op {
	case Eq:
		for i, x := range col {
			pass[i] = float64(x) == cf
		}
	case Ne:
		for i, x := range col {
			pass[i] = float64(x) != cf
		}
	case Lt:
		for i, x := range col {
			pass[i] = float64(x) < cf
		}
	case Le:
		for i, x := range col {
			pass[i] = float64(x) <= cf
		}
	case Gt:
		for i, x := range col {
			pass[i] = float64(x) > cf
		}
	case Ge:
		for i, x := range col {
			pass[i] = float64(x) >= cf
		}
	}
}

func maskValid(pass []bool, valid *rel.Bitmap, lo int) {
	if valid == nil {
		return
	}
	for i := range pass {
		pass[i] = pass[i] && valid.Get(lo+i)
	}
}

// colColCmp compares two columns row by row.
type colColCmp struct {
	op     CmpOp
	li, ri int
}

func (n colColCmp) eval(c *rel.Columns, lo, hi int, pass []bool) {
	for i := range pass {
		pass[i] = cmpValues(n.op, c.Value(n.li, lo+i), c.Value(n.ri, lo+i)).Bool()
	}
}

// vecIn is membership of a column in a literal list, with In's exact NULL
// semantics: a NULL cell matches only a NULL literal, so NOT IN accepts
// NULL rows when no NULL literal is present.
type vecIn struct {
	idx   int
	items []rel.Value
	inv   bool
}

func (n vecIn) verdictOf(v rel.Value) bool {
	found := false
	for _, item := range n.items {
		if v.Equal(item) {
			found = true
			break
		}
	}
	return found != n.inv
}

func (n vecIn) eval(c *rel.Columns, lo, hi int, pass []bool) {
	b := &c.Banks[n.idx]
	if b.Mixed == nil && b.Kind == rel.KString {
		verdict := make([]bool, len(b.Dict))
		for code, s := range b.Dict {
			verdict[code] = n.verdictOf(rel.String(s))
		}
		nullVerdict := n.verdictOf(rel.Null())
		codes := b.Codes[lo:hi]
		if b.Valid == nil {
			for i, code := range codes {
				pass[i] = verdict[code]
			}
			return
		}
		for i, code := range codes {
			if b.Valid.Get(lo + i) {
				pass[i] = verdict[code]
			} else {
				pass[i] = nullVerdict
			}
		}
		return
	}
	for i := range pass {
		pass[i] = n.verdictOf(c.Value(n.idx, lo+i))
	}
}

// vecAnd mirrors And.Eval: both sides evaluate (boolean, side-effect
// free), so computing both spans and conjoining matches the short-circuit
// row form verdict for verdict.
type vecAnd struct{ l, r vecNode }

func (n vecAnd) eval(c *rel.Columns, lo, hi int, pass []bool) {
	n.l.eval(c, lo, hi, pass)
	tmp := make([]bool, hi-lo)
	n.r.eval(c, lo, hi, tmp)
	for i := range pass {
		pass[i] = pass[i] && tmp[i]
	}
}

type vecOr struct{ l, r vecNode }

func (n vecOr) eval(c *rel.Columns, lo, hi int, pass []bool) {
	n.l.eval(c, lo, hi, pass)
	tmp := make([]bool, hi-lo)
	n.r.eval(c, lo, hi, tmp)
	for i := range pass {
		pass[i] = pass[i] || tmp[i]
	}
}

type vecNot struct{ e vecNode }

func (n vecNot) eval(c *rel.Columns, lo, hi int, pass []bool) {
	n.e.eval(c, lo, hi, pass)
	for i := range pass {
		pass[i] = !pass[i]
	}
}

// cols implementations: the column indices each node's eval reads.

func (n vecConst) cols(dst []int) []int   { return dst }
func (n vecBoolCol) cols(dst []int) []int { return append(dst, n.idx) }
func (n colCmp) cols(dst []int) []int     { return append(dst, n.idx) }
func (n colColCmp) cols(dst []int) []int  { return append(dst, n.li, n.ri) }
func (n vecIn) cols(dst []int) []int      { return append(dst, n.idx) }
func (n vecAnd) cols(dst []int) []int     { return n.r.cols(n.l.cols(dst)) }
func (n vecOr) cols(dst []int) []int      { return n.r.cols(n.l.cols(dst)) }
func (n vecNot) cols(dst []int) []int     { return n.e.cols(dst) }
