package sql

import (
	"errors"
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

// splitDisjuncts flattens an OR tree into its disjuncts.
func splitDisjuncts(e ExprNode) []ExprNode {
	if b, ok := e.(*BinOp); ok && b.Op == "OR" {
		return append(splitDisjuncts(b.L), splitDisjuncts(b.R)...)
	}
	return []ExprNode{e}
}

// hasSubquery reports whether the expression contains a subquery operand.
func hasSubquery(e ExprNode) bool {
	found := false
	inspect(e, func(n ExprNode) bool {
		switch t := n.(type) {
		case *Subquery:
			found = true
		case *InExpr:
			found = found || t.Sub != nil
		}
		return !found
	})
	return found
}

// errAggFound stops containsAggregate's walk at the first aggregate call.
var errAggFound = errors.New("aggregate found")

// walkAggCalls visits every outermost aggregate call in the expression,
// stopping at the first error fn returns.
func walkAggCalls(e ExprNode, isAgg func(string) bool, fn func(*FuncCall) error) error {
	var err error
	inspect(e, func(n ExprNode) bool {
		if fc, ok := n.(*FuncCall); ok && err == nil && isAgg(strings.ToUpper(fc.Name)) {
			err = fn(fc)
			return false
		}
		return err == nil
	})
	return err
}

// containsAggregate reports whether the expression contains an aggregate
// call, consulting isAgg for UDAF names.
func containsAggregate(e ExprNode, isAgg func(name string) bool) bool {
	return walkAggCalls(e, isAgg, func(*FuncCall) error { return errAggFound }) != nil
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

// SQL's arithmetic and comparison operators and their expr counterparts.
var (
	arithOps = map[string]expr.ArithOp{"+": expr.Add, "-": expr.Sub, "*": expr.Mul,
		"/": expr.Div, "%": expr.Mod}
	cmpOps = map[string]expr.CmpOp{"=": expr.Eq, "<>": expr.Ne, "<": expr.Lt,
		"<=": expr.Le, ">": expr.Gt, ">=": expr.Ge}
)

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
		if arith, ok := arithOps[t.Op]; ok {
			for _, operand := range []expr.Expr{l, r} {
				if err := expr.CheckOperand(t.Op, expr.NumKind, operand); err != nil {
					return nil, err
				}
			}
			return expr.NewArith(arith, l, r), nil
		}
		if cmp, ok := cmpOps[t.Op]; ok {
			return expr.NewCmp(cmp, l, r), nil
		}
		switch t.Op {
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
			if err := expr.CheckOperand(t.Op, expr.NumKind, inner); err != nil {
				return nil, err
			}
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
		if strings.EqualFold(t.Name, "IF") {
			// IF(c, a, b) is CASE WHEN c THEN a ELSE b END.
			if len(t.Args) != 3 {
				return nil, fmt.Errorf("sql: IF expects 3 args, got %d", len(t.Args))
			}
			return pl.lowerExpr(&CaseExpr{Whens: []WhenClause{{Cond: t.Args[0], Then: t.Args[1]}}, Else: t.Args[2]}, schema, aggMap)
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
		Name: "LIKE", MinArgs: 1, MaxArgs: 1, RetType: rel.KBool, Args: []expr.ArgKind{expr.StrKind},
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

// filteredEntry is a static base-table FROM entry and the WHERE conjuncts
// pushed onto it (planFromJoin). A correlated scalar subquery whose outer
// column it supplies semi-joins on it (decorrelate).
type filteredEntry struct {
	ref    TableRef
	schema rel.Schema
	conjs  []ExprNode
}

// outerScope is what a WHERE block offers its scalar subqueries: the schema
// their outer columns resolve in and the block's filtered entries.
type outerScope struct {
	schema   rel.Schema
	filtered []filteredEntry
}

// attachSubqueryConjunct joins a WHERE conjunct containing a subquery into
// the current tree; filtered are the block's filtered entries:
//
//   - x IN (SELECT ...)       -> equi-join against the deduplicated subquery
//   - e cmp (SELECT agg ...)  -> join (cross or decorrelated) + comparison
func (pl *Planner) attachSubqueryConjunct(node plan.Node, c ExprNode, filtered []filteredEntry) (plan.Node, error) {
	t, ok := c.(*InExpr)
	if !ok {
		return pl.attachScalarComparison(node, c, nil, &outerScope{schema: node.Schema(), filtered: filtered})
	}
	if t.Sub == nil {
		// The subquery is the probe of a literal IN list.
		return nil, fmt.Errorf("sql: unsupported subquery predicate %q", "IN")
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
	sub, _, err := pl.planSelect(t.Sub)
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

// attachScalarComparison joins the scalar subquery that one side of a
// comparison conjunct reads into node, and filters on the comparison: the
// join-plus-select of Figure 2(a). WHERE passes node's schema as scope, so
// an equality-correlated subquery joins on its correlation columns. HAVING
// passes aggMap to lower the other operand and no scope, so its subqueries
// must be uncorrelated (a cross join).
func (pl *Planner) attachScalarComparison(node plan.Node, c ExprNode, aggMap map[string]int, scope *outerScope) (plan.Node, error) {
	b, ok := c.(*BinOp)
	if !ok {
		return nil, fmt.Errorf("sql: unsupported subquery conjunct %T", c)
	}
	op, ok := cmpOps[b.Op]
	if !ok {
		return nil, fmt.Errorf("sql: unsupported subquery predicate %q", b.Op)
	}
	lhs, sub := b.L, b.R
	if _, isSub := b.L.(*Subquery); isSub {
		// Normalise: subquery on the right, mirroring the operator.
		lhs, sub, op = b.R, b.L, op.Mirror()
	}
	sq, isSub := sub.(*Subquery)
	if !isSub {
		return nil, fmt.Errorf("sql: unsupported subquery conjunct shape")
	}
	subNode, outerIdents, err := pl.planScalarSubquery(sq.Stmt, scope)
	if err != nil {
		return nil, err
	}
	pl.subqSeq++
	requalify(subNode, fmt.Sprintf("__subq%d", pl.subqSeq))
	outerKeys := make([]int, len(outerIdents))
	innerKeys := make([]int, len(outerIdents))
	for i, oid := range outerIdents {
		idx, err := node.Schema().Resolve(oid.Qual, oid.Name)
		if err != nil {
			return nil, fmt.Errorf("sql: correlated column %s: %w", oid, err)
		}
		outerKeys[i], innerKeys[i] = idx, i
	}
	width := len(node.Schema())
	joined := plan.NewJoin(node, subNode, outerKeys, innerKeys)
	l, err := pl.lowerExpr(lhs, node.Schema(), aggMap)
	if err != nil {
		return nil, err
	}
	valCol := expr.NewCol(width+len(outerKeys), "__subval", rel.KFloat)
	return plan.NewSelect(joined, expr.NewCmp(op, l, valCol)), nil
}

// planScalarSubquery plans a scalar subquery whose enclosing block offers
// scope (nil when it may not correlate). It returns the plan, whose output is
// the correlation keys followed by the value, and the enclosing block's
// columns those keys join on.
func (pl *Planner) planScalarSubquery(stmt *SelectStmt, scope *outerScope) (plan.Node, []*Ident, error) {
	var outerIdents []*Ident
	if scope != nil && stmt.UnionAll == nil && stmt.Having == nil && len(stmt.GroupBy) == 0 {
		var err error
		if stmt, outerIdents, err = pl.decorrelate(stmt, scope); err != nil {
			return nil, nil, err
		}
	}
	node, _, err := pl.planSelect(stmt)
	if err != nil {
		return nil, nil, err
	}
	if len(node.Schema()) != len(outerIdents)+1 {
		return nil, nil, fmt.Errorf("sql: scalar subquery must produce one column")
	}
	return node, outerIdents, nil
}

// decorrelate rewrites an equality-correlated scalar subquery into one the
// planner plans like any other (Appendix B, Eq. 4): each inner = outer
// conjunct leaves the WHERE clause, its inner column becomes a GROUP BY key
// selected ahead of the value, and its outer column is returned for the
// caller to join on. When the outer column comes from a filtered entry of
// the enclosing block, the rewrite also keeps only the inner rows whose key
// that entry's filtered rows hold: inner IN (SELECT outer FROM entry WHERE
// its pushed conjuncts). Every group the outer join reads keeps all its rows,
// the others are never folded, and the IN path deduplicates, so a dimension
// with repeated keys multiplies no inner row. An uncorrelated subquery comes
// back unchanged.
func (pl *Planner) decorrelate(stmt *SelectStmt, scope *outerScope) (*SelectStmt, []*Ident, error) {
	inner := rel.Schema{}
	for _, ref := range stmt.From {
		n, err := pl.planTableRef(ref)
		if err != nil {
			return nil, nil, err
		}
		inner = inner.Concat(n.Schema())
	}
	out := &SelectStmt{From: stmt.From, Limit: -1, aggPrefix: "sub_"}
	var outerIdents []*Ident
	for _, c := range splitConjuncts(stmt.Where) {
		in, outer, ok := correlation(c, inner, scope.schema)
		if !ok {
			out.Where = conjoin(out.Where, c)
			continue
		}
		idx, _ := inner.Resolve(in.Qual, in.Name) // correlation resolved it
		out.GroupBy = append(out.GroupBy, in)
		out.Items = append(out.Items, SelectItem{Expr: in, Alias: inner[idx].Name})
		outerIdents = append(outerIdents, outer)
		for _, f := range scope.filtered {
			if _, err := f.schema.Resolve(outer.Qual, outer.Name); err == nil {
				keys := &SelectStmt{Items: []SelectItem{{Expr: outer}}, From: []TableRef{f.ref}, Limit: -1}
				for _, fc := range f.conjs {
					keys.Where = conjoin(keys.Where, fc)
				}
				out.Where = conjoin(out.Where, &InExpr{E: in, Sub: keys})
			}
		}
	}
	if len(outerIdents) == 0 {
		return stmt, nil, nil
	}
	if len(stmt.Items) != 1 || !containsAggregate(stmt.Items[0].Expr, pl.isAgg) {
		return nil, nil, fmt.Errorf("sql: correlated scalar subquery must select one aggregate")
	}
	out.Items = append(out.Items, SelectItem{Expr: stmt.Items[0].Expr, Alias: "subval"})
	return out, outerIdents, nil
}

// correlation matches an inner = outer conjunct, in either order: one column
// resolves in the subquery's FROM schema inner, the other only in the
// enclosing block's scope.
func correlation(c ExprNode, inner, scope rel.Schema) (in, out *Ident, ok bool) {
	b, isBin := c.(*BinOp)
	if !isBin || b.Op != "=" {
		return nil, nil, false
	}
	l, lok := b.L.(*Ident)
	r, rok := b.R.(*Ident)
	if !lok || !rok {
		return nil, nil, false
	}
	resolves := func(s rel.Schema, id *Ident) bool {
		_, err := s.Resolve(id.Qual, id.Name)
		return err == nil
	}
	for _, p := range [][2]*Ident{{l, r}, {r, l}} {
		if resolves(inner, p[0]) && !resolves(inner, p[1]) && resolves(scope, p[1]) {
			return p[0], p[1], true
		}
	}
	return nil, nil, false
}
