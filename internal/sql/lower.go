package sql

import (
	"fmt"
	"strconv"
	"strings"

	"iolap/internal/agg"
	"iolap/internal/expr"
	"iolap/internal/plan"
	"iolap/internal/rel"
)

// splitConjuncts flattens an AND tree into its conjuncts.
func splitConjuncts(e ExprNode) []ExprNode {
	if e == nil {
		return nil
	}
	if b, ok := e.(*BinOp); ok && b.Op == "AND" {
		return append(splitConjuncts(b.L), splitConjuncts(b.R)...)
	}
	return []ExprNode{e}
}

// hasSubquery reports whether the expression contains a subquery operand.
func hasSubquery(e ExprNode) bool {
	switch t := e.(type) {
	case nil:
		return false
	case *Subquery:
		return true
	case *InExpr:
		if t.Sub != nil {
			return true
		}
		for _, item := range t.List {
			if hasSubquery(item) {
				return true
			}
		}
		return hasSubquery(t.E)
	case *BinOp:
		return hasSubquery(t.L) || hasSubquery(t.R)
	case *UnOp:
		return hasSubquery(t.E)
	case *CaseExpr:
		for _, w := range t.Whens {
			if hasSubquery(w.Cond) || hasSubquery(w.Then) {
				return true
			}
		}
		return hasSubquery(t.Else)
	case *BetweenExpr:
		return hasSubquery(t.E) || hasSubquery(t.Lo) || hasSubquery(t.Hi)
	case *FuncCall:
		for _, a := range t.Args {
			if hasSubquery(a) {
				return true
			}
		}
		return false
	}
	return false
}

// walkAggCalls visits every outermost aggregate call in the expression.
func walkAggCalls(e ExprNode, isAgg func(string) bool, fn func(*FuncCall) error) error {
	switch t := e.(type) {
	case nil:
		return nil
	case *FuncCall:
		if isAgg(strings.ToUpper(t.Name)) {
			return fn(t)
		}
		for _, a := range t.Args {
			if err := walkAggCalls(a, isAgg, fn); err != nil {
				return err
			}
		}
		return nil
	case *BinOp:
		if err := walkAggCalls(t.L, isAgg, fn); err != nil {
			return err
		}
		return walkAggCalls(t.R, isAgg, fn)
	case *UnOp:
		return walkAggCalls(t.E, isAgg, fn)
	case *CaseExpr:
		for _, w := range t.Whens {
			if err := walkAggCalls(w.Cond, isAgg, fn); err != nil {
				return err
			}
			if err := walkAggCalls(w.Then, isAgg, fn); err != nil {
				return err
			}
		}
		return walkAggCalls(t.Else, isAgg, fn)
	case *BetweenExpr:
		if err := walkAggCalls(t.E, isAgg, fn); err != nil {
			return err
		}
		if err := walkAggCalls(t.Lo, isAgg, fn); err != nil {
			return err
		}
		return walkAggCalls(t.Hi, isAgg, fn)
	case *InExpr:
		if err := walkAggCalls(t.E, isAgg, fn); err != nil {
			return err
		}
		for _, item := range t.List {
			if err := walkAggCalls(item, isAgg, fn); err != nil {
				return err
			}
		}
		return nil
	}
	return nil
}

// astKey renders a canonical string for an expression AST, used to dedupe
// aggregate calls.
func astKey(e ExprNode) string {
	switch t := e.(type) {
	case nil:
		return "<nil>"
	case *Ident:
		return strings.ToLower(t.String())
	case *Lit:
		switch t.Kind {
		case LitString:
			return "'" + t.Str + "'"
		case LitNull:
			return "NULL"
		case LitBool:
			return strconv.FormatBool(t.Bool)
		default:
			return strconv.FormatFloat(t.Num, 'g', -1, 64)
		}
	case *BinOp:
		return "(" + astKey(t.L) + t.Op + astKey(t.R) + ")"
	case *UnOp:
		return "(" + t.Op + astKey(t.E) + ")"
	case *FuncCall:
		parts := make([]string, len(t.Args))
		for i, a := range t.Args {
			parts[i] = astKey(a)
		}
		star := ""
		if t.Star {
			star = "*"
		}
		if t.Distinct {
			star = "DISTINCT "
		}
		return strings.ToUpper(t.Name) + "(" + star + strings.Join(parts, ",") + ")"
	case *CaseExpr:
		var b strings.Builder
		b.WriteString("CASE")
		for _, w := range t.Whens {
			b.WriteString("W" + astKey(w.Cond) + "T" + astKey(w.Then))
		}
		b.WriteString("E" + astKey(t.Else))
		return b.String()
	case *BetweenExpr:
		return "BETWEEN(" + astKey(t.E) + "," + astKey(t.Lo) + "," + astKey(t.Hi) + ")"
	case *InExpr:
		parts := make([]string, len(t.List))
		for i, a := range t.List {
			parts[i] = astKey(a)
		}
		return "IN(" + astKey(t.E) + ";" + strings.Join(parts, ",") + ")"
	case *LikeExpr:
		return "LIKE(" + astKey(t.E) + ",'" + t.Pattern + "')"
	case *Subquery:
		return "SUBQ"
	}
	return "?"
}

// aggFunc resolves an aggregate call's implementation, mapping
// COUNT(DISTINCT x) onto the COUNTD accumulator.
func (pl *Planner) aggFunc(fc *FuncCall) (*agg.Func, error) {
	name := strings.ToUpper(fc.Name)
	if fc.Distinct {
		if name != "COUNT" {
			return nil, fmt.Errorf("sql: DISTINCT is only supported inside COUNT")
		}
		name = "COUNTD"
	}
	fn, ok := pl.aggs.Lookup(name)
	if !ok {
		return nil, fmt.Errorf("sql: unknown aggregate %q", name)
	}
	return fn, nil
}

// lowerConjuncts lowers and conjoins a list of predicates.
func (pl *Planner) lowerConjuncts(conjs []ExprNode, schema rel.Schema, aggMap map[string]int) (expr.Expr, error) {
	var out expr.Expr
	for _, c := range conjs {
		e, err := pl.lowerExpr(c, schema, aggMap)
		if err != nil {
			return nil, err
		}
		if out == nil {
			out = e
		} else {
			out = expr.NewAnd(out, e)
		}
	}
	return out, nil
}

// lowerExpr lowers an AST expression against a schema. aggMap, when present,
// maps canonical aggregate-call keys to output columns (post-aggregation
// lowering for HAVING and select items).
func (pl *Planner) lowerExpr(e ExprNode, schema rel.Schema, aggMap map[string]int) (expr.Expr, error) {
	switch t := e.(type) {
	case *Ident:
		idx, err := schema.Resolve(t.Qual, t.Name)
		if err != nil {
			return nil, err
		}
		return expr.NewCol(idx, t.String(), schema[idx].Type), nil
	case *Lit:
		switch t.Kind {
		case LitNumber:
			if t.IsInt {
				return expr.NewConst(rel.Int(t.Int)), nil
			}
			return expr.NewConst(rel.Float(t.Num)), nil
		case LitString:
			return expr.NewConst(rel.String(t.Str)), nil
		case LitBool:
			return expr.NewConst(rel.Bool(t.Bool)), nil
		default:
			return expr.NewConst(rel.Null()), nil
		}
	case *BinOp:
		l, err := pl.lowerExpr(t.L, schema, aggMap)
		if err != nil {
			return nil, err
		}
		r, err := pl.lowerExpr(t.R, schema, aggMap)
		if err != nil {
			return nil, err
		}
		switch t.Op {
		case "+":
			return expr.NewArith(expr.Add, l, r), nil
		case "-":
			return expr.NewArith(expr.Sub, l, r), nil
		case "*":
			return expr.NewArith(expr.Mul, l, r), nil
		case "/":
			return expr.NewArith(expr.Div, l, r), nil
		case "%":
			return expr.NewArith(expr.Mod, l, r), nil
		case "=":
			return expr.NewCmp(expr.Eq, l, r), nil
		case "<>":
			return expr.NewCmp(expr.Ne, l, r), nil
		case "<":
			return expr.NewCmp(expr.Lt, l, r), nil
		case "<=":
			return expr.NewCmp(expr.Le, l, r), nil
		case ">":
			return expr.NewCmp(expr.Gt, l, r), nil
		case ">=":
			return expr.NewCmp(expr.Ge, l, r), nil
		case "AND":
			return expr.NewAnd(l, r), nil
		case "OR":
			return expr.NewOr(l, r), nil
		}
		return nil, fmt.Errorf("sql: unknown operator %q", t.Op)
	case *UnOp:
		inner, err := pl.lowerExpr(t.E, schema, aggMap)
		if err != nil {
			return nil, err
		}
		if t.Op == "-" {
			return expr.NewNeg(inner), nil
		}
		return expr.NewNot(inner), nil
	case *FuncCall:
		if pl.isAgg(t.Name) {
			if aggMap == nil {
				return nil, fmt.Errorf("sql: aggregate %s not allowed here", t.Name)
			}
			idx, ok := aggMap[astKey(t)]
			if !ok {
				return nil, fmt.Errorf("sql: aggregate %s not collected", astKey(t))
			}
			return expr.NewCol(idx, astKey(t), rel.KFloat), nil
		}
		f, ok := pl.funcs.Lookup(t.Name)
		if !ok {
			return nil, fmt.Errorf("sql: unknown function %q", t.Name)
		}
		args := make([]expr.Expr, len(t.Args))
		for i, a := range t.Args {
			arg, err := pl.lowerExpr(a, schema, aggMap)
			if err != nil {
				return nil, err
			}
			args[i] = arg
		}
		return expr.NewFunc(f, args)
	case *CaseExpr:
		var pairs []expr.Expr
		for _, w := range t.Whens {
			cond, err := pl.lowerExpr(w.Cond, schema, aggMap)
			if err != nil {
				return nil, err
			}
			then, err := pl.lowerExpr(w.Then, schema, aggMap)
			if err != nil {
				return nil, err
			}
			pairs = append(pairs, cond, then)
		}
		var elseE expr.Expr
		if t.Else != nil {
			var err error
			elseE, err = pl.lowerExpr(t.Else, schema, aggMap)
			if err != nil {
				return nil, err
			}
		}
		return expr.NewCase(pairs, elseE), nil
	case *BetweenExpr:
		v, err := pl.lowerExpr(t.E, schema, aggMap)
		if err != nil {
			return nil, err
		}
		lo, err := pl.lowerExpr(t.Lo, schema, aggMap)
		if err != nil {
			return nil, err
		}
		hi, err := pl.lowerExpr(t.Hi, schema, aggMap)
		if err != nil {
			return nil, err
		}
		if t.Inv {
			return expr.NewOr(expr.NewCmp(expr.Lt, v, lo), expr.NewCmp(expr.Gt, v, hi)), nil
		}
		return expr.NewAnd(expr.NewCmp(expr.Ge, v, lo), expr.NewCmp(expr.Le, v, hi)), nil
	case *InExpr:
		if t.Sub != nil {
			return nil, fmt.Errorf("sql: IN (subquery) only supported as a WHERE conjunct")
		}
		v, err := pl.lowerExpr(t.E, schema, aggMap)
		if err != nil {
			return nil, err
		}
		list := make([]expr.Expr, len(t.List))
		for i, item := range t.List {
			li, err := pl.lowerExpr(item, schema, aggMap)
			if err != nil {
				return nil, err
			}
			list[i] = li
		}
		return expr.NewIn(v, list, t.Inv), nil
	case *LikeExpr:
		v, err := pl.lowerExpr(t.E, schema, aggMap)
		if err != nil {
			return nil, err
		}
		f := likeFunc(t.Pattern, t.Inv)
		return expr.NewFunc(f, []expr.Expr{v})
	case *Subquery:
		return nil, fmt.Errorf("sql: scalar subquery only supported as a WHERE/HAVING comparison operand")
	}
	return nil, fmt.Errorf("sql: cannot lower %T", e)
}

// likeFunc builds an ad-hoc scalar function implementing the '%'-wildcard
// subset of LIKE.
func likeFunc(pattern string, inv bool) *expr.ScalarFunc {
	match := compileLike(pattern)
	return &expr.ScalarFunc{
		Name: "LIKE", MinArgs: 1, MaxArgs: 1, RetType: rel.KBool,
		Fn: func(args []rel.Value) rel.Value {
			if args[0].IsNull() {
				return rel.Bool(false)
			}
			return rel.Bool(match(args[0].Str()) != inv)
		},
	}
}

// compileLike supports patterns with '%' wildcards (no '_').
func compileLike(pattern string) func(string) bool {
	parts := strings.Split(pattern, "%")
	return func(s string) bool {
		if len(parts) == 1 {
			return s == pattern
		}
		if !strings.HasPrefix(s, parts[0]) {
			return false
		}
		s = s[len(parts[0]):]
		for _, mid := range parts[1 : len(parts)-1] {
			if mid == "" {
				continue
			}
			i := strings.Index(s, mid)
			if i < 0 {
				return false
			}
			s = s[i+len(mid):]
		}
		last := parts[len(parts)-1]
		return strings.HasSuffix(s, last)
	}
}

// ---------------------------------------------------------------------------
// Subquery conjuncts (nested aggregates)

// attachSubqueryConjunct joins a WHERE conjunct containing a subquery into
// the current tree:
//
//   - x IN (SELECT ...)       -> equi-join against the deduplicated subquery
//   - e cmp (SELECT agg ...)  -> join (cross or decorrelated) + comparison
func (pl *Planner) attachSubqueryConjunct(node plan.Node, c ExprNode, outer rel.Schema) (plan.Node, error) {
	switch t := c.(type) {
	case *InExpr:
		if t.Sub == nil {
			return nil, fmt.Errorf("sql: internal: IN conjunct without subquery")
		}
		if t.Inv {
			return nil, fmt.Errorf("sql: NOT IN (subquery) requires set difference, outside the positive algebra (paper §3.3)")
		}
		id, ok := t.E.(*Ident)
		if !ok {
			return nil, fmt.Errorf("sql: IN (subquery) requires a bare column on the left")
		}
		keyIdx, err := node.Schema().Resolve(id.Qual, id.Name)
		if err != nil {
			return nil, err
		}
		sub, _, err := pl.planSelect(t.Sub, nil)
		if err != nil {
			return nil, err
		}
		if len(sub.Schema()) != 1 {
			return nil, fmt.Errorf("sql: IN subquery must produce one column")
		}
		// Deduplicate so the join is a semijoin, then hide the key
		// column under a unique qualifier and name so it can never
		// shadow (or be ambiguous with) an outer column.
		dedup := plan.NewAggregate(sub, []int{0}, nil)
		pl.subqSeq++
		dedup.Out = dedup.Out.WithTable(fmt.Sprintf("__subq%d", pl.subqSeq))
		dedup.Out[0].Name = fmt.Sprintf("__in_key%d", pl.subqSeq)
		return plan.NewJoin(node, dedup, []int{keyIdx}, []int{0}), nil

	case *BinOp:
		ops := map[string]expr.CmpOp{"=": expr.Eq, "<>": expr.Ne, "<": expr.Lt,
			"<=": expr.Le, ">": expr.Gt, ">=": expr.Ge}
		op, ok := ops[t.Op]
		if !ok {
			return nil, fmt.Errorf("sql: unsupported subquery predicate %q", t.Op)
		}
		lhs, sub := t.L, t.R
		if _, isSub := t.L.(*Subquery); isSub {
			// Normalise: subquery on the right, flipping the operator.
			lhs, sub = t.R, t.L
			switch op {
			case expr.Lt:
				op = expr.Gt
			case expr.Le:
				op = expr.Ge
			case expr.Gt:
				op = expr.Lt
			case expr.Ge:
				op = expr.Le
			}
		}
		sq, isSub := sub.(*Subquery)
		if !isSub {
			return nil, fmt.Errorf("sql: unsupported subquery conjunct shape")
		}
		subNode, innerKeys, outerIdents, valIdx, err := pl.planScalarSubquery(sq.Stmt, node.Schema())
		if err != nil {
			return nil, err
		}
		pl.subqSeq++
		requalify(subNode, fmt.Sprintf("__subq%d", pl.subqSeq))
		outerKeys := make([]int, len(outerIdents))
		for i, oid := range outerIdents {
			idx, err := node.Schema().Resolve(oid.Qual, oid.Name)
			if err != nil {
				return nil, fmt.Errorf("sql: correlated column %s: %w", oid, err)
			}
			outerKeys[i] = idx
		}
		width := len(node.Schema())
		joined := plan.NewJoin(node, subNode, outerKeys, innerKeys)
		l, err := pl.lowerExpr(lhs, node.Schema(), nil)
		if err != nil {
			return nil, err
		}
		valCol := expr.NewCol(width+valIdx, "__subval", rel.KFloat)
		return plan.NewSelect(joined, expr.NewCmp(op, l, valCol)), nil
	}
	return nil, fmt.Errorf("sql: unsupported subquery conjunct %T", c)
}

// requalify rewrites a node's visible output qualifiers and names to fresh
// ones so joined subquery columns can never shadow or be ambiguous with
// outer columns (subquery outputs are addressed positionally afterwards).
func requalify(n plan.Node, q string) {
	rename := func(s rel.Schema) rel.Schema {
		out := s.WithTable(q)
		for i := range out {
			out[i].Name = q + "_" + out[i].Name
		}
		return out
	}
	switch t := n.(type) {
	case *plan.Project:
		t.Out = rename(t.Out)
	case *plan.Aggregate:
		t.Out = rename(t.Out)
	case *plan.Scan:
		t.Out = rename(t.Out)
	case *plan.Select:
		requalify(t.Child, q)
	}
}

// attachHavingSubquery handles a HAVING conjunct containing a scalar
// subquery (e.g. TPC-H Q11): join the aggregate output with the subquery and
// filter.
func (pl *Planner) attachHavingSubquery(cur plan.Node, c ExprNode, aggMap map[string]int) (plan.Node, error) {
	b, ok := c.(*BinOp)
	if !ok {
		return nil, fmt.Errorf("sql: unsupported HAVING subquery conjunct %T", c)
	}
	ops := map[string]expr.CmpOp{"=": expr.Eq, "<>": expr.Ne, "<": expr.Lt,
		"<=": expr.Le, ">": expr.Gt, ">=": expr.Ge}
	op, ok := ops[b.Op]
	if !ok {
		return nil, fmt.Errorf("sql: unsupported HAVING operator %q", b.Op)
	}
	lhs, sub := b.L, b.R
	if _, isSub := b.L.(*Subquery); isSub {
		lhs, sub = b.R, b.L
		switch op {
		case expr.Lt:
			op = expr.Gt
		case expr.Le:
			op = expr.Ge
		case expr.Gt:
			op = expr.Lt
		case expr.Ge:
			op = expr.Le
		}
	}
	sq, isSub := sub.(*Subquery)
	if !isSub {
		return nil, fmt.Errorf("sql: HAVING conjunct must compare against a scalar subquery")
	}
	subNode, _, err := pl.planSelect(sq.Stmt, nil)
	if err != nil {
		return nil, err
	}
	if len(subNode.Schema()) != 1 {
		return nil, fmt.Errorf("sql: scalar subquery must produce one column")
	}
	pl.subqSeq++
	requalify(subNode, fmt.Sprintf("__subq%d", pl.subqSeq))
	width := len(cur.Schema())
	joined := plan.NewJoin(cur, subNode, nil, nil)
	l, err := pl.lowerExpr(lhs, cur.Schema(), aggMap)
	if err != nil {
		return nil, err
	}
	valCol := expr.NewCol(width, "__subval", rel.KFloat)
	return plan.NewSelect(joined, expr.NewCmp(op, l, valCol)), nil
}

// planScalarSubquery plans a scalar subquery. Uncorrelated subqueries use
// the full planner recursively (cross join at the caller). Subqueries with
// equality correlation to the outer scope are decorrelated (Appendix B,
// Eq. 4): correlation columns become group-by keys, and the caller joins on
// them. Returns (plan, inner join key columns, outer correlated idents,
// value column index).
func (pl *Planner) planScalarSubquery(stmt *SelectStmt, outer rel.Schema) (plan.Node, []int, []*Ident, int, error) {
	if stmt.UnionAll != nil || stmt.Having != nil || len(stmt.GroupBy) > 0 {
		// Uncorrelated general form only.
		node, _, err := pl.planSelect(stmt, nil)
		if err != nil {
			return nil, nil, nil, 0, err
		}
		if len(node.Schema()) != 1 {
			return nil, nil, nil, 0, fmt.Errorf("sql: scalar subquery must produce one column")
		}
		return node, nil, nil, 0, nil
	}
	// Detect correlation by probing the WHERE conjuncts against the
	// subquery's own FROM schema.
	entries := make([]plan.Node, len(stmt.From))
	inner := rel.Schema{}
	for i, ref := range stmt.From {
		n, err := pl.planTableRef(ref, nil)
		if err != nil {
			return nil, nil, nil, 0, err
		}
		entries[i] = n
		inner = inner.Concat(n.Schema())
	}
	type corr struct {
		innerID *Ident
		outerID *Ident
	}
	var corrs []corr
	var innerConjs []ExprNode
	for _, c := range splitConjuncts(stmt.Where) {
		if _, err := pl.lowerExpr(c, inner, nil); err == nil {
			innerConjs = append(innerConjs, c)
			continue
		}
		// Correlated pattern: innerCol = outerCol (either order).
		b, ok := c.(*BinOp)
		if ok && b.Op == "=" {
			li, lok := b.L.(*Ident)
			ri, rok := b.R.(*Ident)
			if lok && rok {
				_, lInnerErr := inner.Resolve(li.Qual, li.Name)
				_, rInnerErr := inner.Resolve(ri.Qual, ri.Name)
				_, lOuterErr := outer.Resolve(li.Qual, li.Name)
				_, rOuterErr := outer.Resolve(ri.Qual, ri.Name)
				switch {
				case lInnerErr == nil && rOuterErr == nil:
					corrs = append(corrs, corr{innerID: li, outerID: ri})
					continue
				case rInnerErr == nil && lOuterErr == nil:
					corrs = append(corrs, corr{innerID: ri, outerID: li})
					continue
				}
			}
		}
		return nil, nil, nil, 0, fmt.Errorf("sql: unsupported correlated predicate %s", astKey(c))
	}
	if len(corrs) == 0 {
		// Uncorrelated after all: recurse with the full planner.
		node, _, err := pl.planSelect(stmt, nil)
		if err != nil {
			return nil, nil, nil, 0, err
		}
		if len(node.Schema()) != 1 {
			return nil, nil, nil, 0, fmt.Errorf("sql: scalar subquery must produce one column")
		}
		return node, nil, nil, 0, nil
	}
	// Correlated: rebuild the inner tree, then group by the correlation
	// columns (decorrelation).
	synthetic := &SelectStmt{From: stmt.From, Limit: -1}
	for _, c := range innerConjs {
		synthetic.Where = conjoin(synthetic.Where, c)
	}
	synthetic.Items = []SelectItem{{Expr: &Lit{Kind: LitNumber}}} // placeholder
	base, err := pl.planFromJoin(synthetic, nil)
	if err != nil {
		return nil, nil, nil, 0, err
	}
	baseSchema := base.Schema()
	groupIdx := make([]int, len(corrs))
	for i, cr := range corrs {
		idx, err := baseSchema.Resolve(cr.innerID.Qual, cr.innerID.Name)
		if err != nil {
			return nil, nil, nil, 0, err
		}
		groupIdx[i] = idx
	}
	// The select item must contain exactly one aggregate call; the value
	// expression re-applies any surrounding arithmetic over it.
	if len(stmt.Items) != 1 {
		return nil, nil, nil, 0, fmt.Errorf("sql: scalar subquery must have one select item")
	}
	item := stmt.Items[0].Expr
	var calls []*FuncCall
	if err := walkAggCalls(item, pl.isAgg, func(fc *FuncCall) error {
		calls = append(calls, fc)
		return nil
	}); err != nil {
		return nil, nil, nil, 0, err
	}
	if len(calls) == 0 {
		return nil, nil, nil, 0, fmt.Errorf("sql: correlated scalar subquery must aggregate")
	}
	var specs []plan.AggSpec
	aggMap := map[string]int{}
	for _, fc := range calls {
		key := astKey(fc)
		if _, ok := aggMap[key]; ok {
			continue
		}
		fn, err := pl.aggFunc(fc)
		if err != nil {
			return nil, nil, nil, 0, err
		}
		spec := plan.AggSpec{Fn: fn, Name: fmt.Sprintf("sub_%s_%d", strings.ToLower(fn.Name), len(specs))}
		if !fc.Star {
			if len(fc.Args) != 1 {
				return nil, nil, nil, 0, fmt.Errorf("sql: aggregate %s takes one argument", fc.Name)
			}
			arg, err := pl.lowerExpr(fc.Args[0], baseSchema, nil)
			if err != nil {
				return nil, nil, nil, 0, err
			}
			spec.Arg = arg
		}
		aggMap[key] = len(groupIdx) + len(specs)
		specs = append(specs, spec)
	}
	aggNode := plan.NewAggregate(base, groupIdx, specs)
	// Project: [group keys..., value expression].
	exprs := make([]expr.Expr, 0, len(groupIdx)+1)
	names := make([]string, 0, len(groupIdx)+1)
	for i := range groupIdx {
		c := aggNode.Schema()[i]
		exprs = append(exprs, expr.NewCol(i, c.Name, c.Type))
		names = append(names, c.Name)
	}
	valExpr, err := pl.lowerExpr(item, aggNode.Schema(), aggMap)
	if err != nil {
		return nil, nil, nil, 0, err
	}
	exprs = append(exprs, valExpr)
	names = append(names, "subval")
	proj := plan.NewProject(aggNode, exprs, names)
	innerKeys := make([]int, len(corrs))
	outerIdents := make([]*Ident, len(corrs))
	for i, cr := range corrs {
		innerKeys[i] = i
		outerIdents[i] = cr.outerID
	}
	return proj, innerKeys, outerIdents, len(corrs), nil
}
