package sql

import (
	"fmt"
	"sort"
	"strings"

	"iolap/internal/agg"
	"iolap/internal/bootstrap"
	"iolap/internal/expr"
	"iolap/internal/plan"
	"iolap/internal/rel"
)

// Catalog holds table schemas and the set of streamed tables (the paper lets
// the user specify which input relations are processed online; typically the
// fact table — Section 2).
type Catalog struct {
	schemas  map[string]rel.Schema
	streamed map[string]bool
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{schemas: make(map[string]rel.Schema), streamed: make(map[string]bool)}
}

// AddTable registers a table schema; streamed tables are processed in
// mini-batches, others read fully at batch 1.
func (c *Catalog) AddTable(name string, schema rel.Schema, streamed bool) {
	key := strings.ToLower(name)
	c.schemas[key] = schema
	c.streamed[key] = streamed
}

// Schema looks up a table schema.
func (c *Catalog) Schema(name string) (rel.Schema, bool) {
	s, ok := c.schemas[strings.ToLower(name)]
	return s, ok
}

// Streamed reports whether the table is processed online.
func (c *Catalog) Streamed(name string) bool {
	return c.streamed[strings.ToLower(name)]
}

// Tables is where a catalog reads its tables from; *exec.DB implements it.
type Tables interface {
	Tables() []string
	Get(name string) (*rel.Relation, bool)
}

// CatalogOf builds the catalog of every table in src. A table streams when
// streamed marks it — unless stream is non-empty, which overrides the marks:
// then exactly the table it names streams.
func CatalogOf(src Tables, streamed map[string]bool, stream string) *Catalog {
	cat := NewCatalog()
	for _, name := range src.Tables() {
		r, _ := src.Get(name)
		st := streamed[name]
		if stream != "" {
			st = name == stream
		}
		cat.AddTable(name, r.Schema, st)
	}
	return cat
}

// PlanQuery is the way from SQL text to a finalized plan: parse, then plan
// against the catalog and registries. Every error is the parser's or the
// planner's own; no input panics.
func PlanQuery(text string, cat *Catalog, funcs *expr.Registry, aggs *agg.Registry) (plan.Node, *PostProcess, error) {
	stmt, err := Parse(text)
	if err != nil {
		return nil, nil, err
	}
	return NewPlanner(cat, funcs, aggs).Plan(stmt)
}

// PostProcess carries ORDER BY / LIMIT, applied to materialised results
// outside the incremental plan (ordering is presentation, not algebra).
type PostProcess struct {
	Keys  []OrderKey
	Limit int // -1 when absent
}

// OrderKey is one ORDER BY column resolved to an output position.
type OrderKey struct {
	Col  int
	Desc bool
}

// Apply sorts and truncates a materialised result. The input is not
// modified; a nil or no-op post-process returns it unchanged.
func (pp *PostProcess) Apply(r *rel.Relation) *rel.Relation {
	out, _ := pp.ApplyWithEstimates(r, nil)
	return out
}

// ApplyWithEstimates is Apply for an incremental result whose rows carry
// aligned bootstrap error estimates: the estimate rows are sorted and
// truncated alongside the tuples, so estimate [i][j] keeps describing row i
// after ORDER BY / LIMIT.
func (pp *PostProcess) ApplyWithEstimates(r *rel.Relation, ests [][]bootstrap.Estimate) (*rel.Relation, [][]bootstrap.Estimate) {
	if pp == nil || (len(pp.Keys) == 0 && pp.Limit < 0) {
		return r, ests
	}
	type pair struct {
		t rel.Tuple
		e []bootstrap.Estimate
	}
	pairs := make([]pair, r.Len())
	for i, t := range r.Tuples {
		var e []bootstrap.Estimate
		if i < len(ests) {
			e = ests[i]
		}
		pairs[i] = pair{t: t, e: e}
	}
	if len(pp.Keys) > 0 {
		sort.SliceStable(pairs, func(i, j int) bool {
			a, b := pairs[i], pairs[j]
			for _, k := range pp.Keys {
				c := a.t.Vals[k.Col].Compare(b.t.Vals[k.Col])
				if c == 0 {
					continue
				}
				if k.Desc {
					return c > 0
				}
				return c < 0
			}
			return false
		})
	}
	limit := len(pairs)
	if pp.Limit >= 0 && pp.Limit < limit {
		limit = pp.Limit
	}
	out := rel.NewRelation(r.Schema)
	var outE [][]bootstrap.Estimate
	for _, p := range pairs[:limit] {
		out.Tuples = append(out.Tuples, p.t)
		outE = append(outE, p.e)
	}
	return out, outE
}

// Planner lowers parsed statements onto logical plans.
type Planner struct {
	cat     *Catalog
	funcs   *expr.Registry
	aggs    *agg.Registry
	subqSeq int // suffix source for generated subquery qualifiers
}

// NewPlanner builds a planner over a catalog and function registries.
func NewPlanner(cat *Catalog, funcs *expr.Registry, aggs *agg.Registry) *Planner {
	return &Planner{cat: cat, funcs: funcs, aggs: aggs}
}

// Plan lowers a statement to a finalized, validated plan plus its
// post-processing spec.
func (pl *Planner) Plan(stmt *SelectStmt) (plan.Node, *PostProcess, error) {
	node, pp, err := pl.planSelect(stmt)
	if err != nil {
		return nil, nil, err
	}
	plan.Finalize(node)
	if err := plan.Validate(node); err != nil {
		return nil, nil, err
	}
	return node, pp, nil
}

func (pl *Planner) isAgg(name string) bool {
	_, ok := pl.aggs.Lookup(name)
	return ok
}

// planSelect lowers one SELECT (and any UNION ALL chain).
func (pl *Planner) planSelect(stmt *SelectStmt) (plan.Node, *PostProcess, error) {
	node, err := pl.planSingle(stmt)
	if err != nil {
		return nil, nil, err
	}
	for u := stmt.UnionAll; u != nil; u = u.UnionAll {
		right, err := pl.planSingle(u)
		if err != nil {
			return nil, nil, err
		}
		if !node.Schema().Equal(right.Schema()) {
			return nil, nil, fmt.Errorf("sql: UNION ALL schema mismatch: %s vs %s",
				node.Schema(), right.Schema())
		}
		node = plan.NewUnion(node, right)
	}
	pp := &PostProcess{Limit: stmt.Limit}
	for _, o := range stmt.OrderBy {
		idx, err := pl.resolveOrderKey(o.Expr, node.Schema(), stmt)
		if err != nil {
			return nil, nil, err
		}
		pp.Keys = append(pp.Keys, OrderKey{Col: idx, Desc: o.Desc})
	}
	return node, pp, nil
}

func (pl *Planner) resolveOrderKey(e ExprNode, out rel.Schema, stmt *SelectStmt) (int, error) {
	id, ok := e.(*Ident)
	if !ok {
		return 0, fmt.Errorf("sql: ORDER BY supports output column names only")
	}
	if idx, err := out.Resolve(id.Qual, id.Name); err == nil {
		return idx, nil
	}
	// Fall back to select-item position by alias.
	for i, item := range stmt.Items {
		if strings.EqualFold(item.Alias, id.Name) {
			return i, nil
		}
	}
	return 0, fmt.Errorf("sql: unknown ORDER BY column %q", id)
}

// planSingle lowers one SELECT block (no UNION chain).
func (pl *Planner) planSingle(stmt *SelectStmt) (plan.Node, error) {
	if len(stmt.Items) == 0 {
		return nil, fmt.Errorf("sql: empty select list")
	}
	if len(stmt.From) == 0 {
		return nil, fmt.Errorf("sql: FROM is required")
	}
	// 1. FROM nodes.
	node, err := pl.planFromJoin(stmt)
	if err != nil {
		return nil, err
	}
	return pl.finishSelect(stmt, node)
}

// planFromJoin builds the join tree over the FROM list, consuming equi-join
// and residual WHERE conjuncts; subquery conjuncts are attached afterwards.
// A residual conjunct that reads columns of one FROM entry only filters that
// entry before it joins (pushConjuncts); the rest filter the joined tree.
func (pl *Planner) planFromJoin(stmt *SelectStmt) (plan.Node, error) {
	type fromEntry struct {
		node plan.Node
	}
	entries := make([]fromEntry, len(stmt.From))
	for i, ref := range stmt.From {
		n, err := pl.planTableRef(ref)
		if err != nil {
			return nil, err
		}
		entries[i] = fromEntry{node: n}
	}
	conjuncts := splitConjuncts(stmt.Where)
	// Classify conjuncts.
	var joinPreds []*BinOp
	var predEntries [][2]int // FROM entries joinPreds[i] connects
	var residual []ExprNode
	var subqueryConjs []ExprNode
	fullSchema := rel.Schema{}
	var offsets []int
	for _, e := range entries {
		offsets = append(offsets, len(fullSchema))
		fullSchema = fullSchema.Concat(e.node.Schema())
	}
	tableIdx := func(col int) int {
		for i := len(offsets) - 1; i >= 0; i-- {
			if col >= offsets[i] {
				return i
			}
		}
		return -1
	}
	for _, c := range conjuncts {
		if hasSubquery(c) {
			subqueryConjs = append(subqueryConjs, c)
			continue
		}
		if b, ok := c.(*BinOp); ok && b.Op == "=" {
			li, lok := b.L.(*Ident)
			ri, rok := b.R.(*Ident)
			if lok && rok {
				lIdx, lErr := fullSchema.Resolve(li.Qual, li.Name)
				rIdx, rErr := fullSchema.Resolve(ri.Qual, ri.Name)
				if lt, rt := tableIdx(lIdx), tableIdx(rIdx); lErr == nil && rErr == nil && lt != rt {
					joinPreds = append(joinPreds, b)
					predEntries = append(predEntries, [2]int{lt, rt})
					continue
				}
			}
		}
		residual = append(residual, c)
	}
	// 1b. Conjuncts below joins: each entry filters itself first.
	pushed, residual := pushConjuncts(residual, len(entries), func(id *Ident) int {
		idx, err := fullSchema.Resolve(id.Qual, id.Name)
		if err != nil {
			return -1
		}
		return tableIdx(idx)
	})
	var filtered []filteredEntry
	for i, conjs := range pushed {
		if len(conjs) == 0 {
			continue
		}
		pred, err := pl.lowerConjuncts(conjs, entries[i].node.Schema(), nil)
		if err != nil {
			return nil, err
		}
		entries[i].node = plan.NewSelect(entries[i].node, pred)
		if ref := stmt.From[i]; ref.Subquery == nil && !pl.cat.Streamed(ref.Table) {
			filtered = append(filtered, filteredEntry{ref: ref, schema: entries[i].node.Schema(), conjs: conjs})
		}
	}
	// 2. Left-deep join, greedily preferring tables connected to the
	// current tree by an equi-join predicate (avoids accidental cross
	// joins from unfavourable FROM order, e.g. TPC-H Q7).
	//
	// Star rule (PAPER.md §2, data-free): a static entry equi-joined to a
	// streamed entry is a direct dimension of the fact table, and two direct
	// dimensions do not join each other before the fact table joins — their
	// shared attribute (TPC-H Q5: customer and supplier on nationkey) is
	// many-to-many. A dimension of a dimension (Q7: supplier-nation) still
	// pre-joins.
	streamed := make([]bool, len(entries))
	for i, e := range entries {
		streamed[i] = len(plan.StreamedScans(e.node)) > 0
	}
	factDim := make([]bool, len(entries))
	for _, pe := range predEntries {
		a, b := pe[0], pe[1]
		if streamed[a] != streamed[b] {
			factDim[a], factDim[b] = !streamed[a], !streamed[b]
		}
	}
	node := entries[0].node
	used := make([]bool, len(joinPreds))
	joined := make([]bool, len(entries))
	joined[0] = true
	treeStreamed, treeFactDim := streamed[0], factDim[0]
	// matchKeys collects the unused join predicates connecting the
	// current tree to candidate right (marking them used on success).
	matchKeys := func(rightSchema rel.Schema, commit bool) ([]int, []int) {
		var lKeys, rKeys []int
		for pi, jp := range joinPreds {
			if used[pi] {
				continue
			}
			li := jp.L.(*Ident)
			ri := jp.R.(*Ident)
			// Try left-in-tree / right-in-new and the swap.
			if lIdx, err := node.Schema().Resolve(li.Qual, li.Name); err == nil {
				if rIdx, err2 := rightSchema.Resolve(ri.Qual, ri.Name); err2 == nil {
					lKeys = append(lKeys, lIdx)
					rKeys = append(rKeys, rIdx)
					if commit {
						used[pi] = true
					}
					continue
				}
			}
			if lIdx, err := node.Schema().Resolve(ri.Qual, ri.Name); err == nil {
				if rIdx, err2 := rightSchema.Resolve(li.Qual, li.Name); err2 == nil {
					lKeys = append(lKeys, lIdx)
					rKeys = append(rKeys, rIdx)
					if commit {
						used[pi] = true
					}
					continue
				}
			}
		}
		return lKeys, rKeys
	}
	for remaining := len(entries) - 1; remaining > 0; remaining-- {
		// Prefer a connected table the star rule allows (a skip never
		// strands the loop: the streamed entry that makes the tree's
		// dimension a fact dimension is itself connected); fall back to
		// FROM order (cross join).
		pick := -1
		for i, e := range entries {
			if joined[i] || (!treeStreamed && treeFactDim && factDim[i]) {
				continue
			}
			if lk, _ := matchKeys(e.node.Schema(), false); len(lk) > 0 {
				pick = i
				break
			}
		}
		if pick < 0 {
			for i := range entries {
				if !joined[i] {
					pick = i
					break
				}
			}
		}
		right := entries[pick].node
		lKeys, rKeys := matchKeys(right.Schema(), true)
		node = plan.NewJoin(node, right, lKeys, rKeys)
		joined[pick] = true
		treeStreamed = treeStreamed || streamed[pick]
		treeFactDim = treeFactDim || factDim[pick]
	}
	for pi, jp := range joinPreds {
		if !used[pi] {
			// A join predicate that did not fit the left-deep order
			// becomes a residual filter.
			residual = append(residual, jp)
		}
	}
	// 3. Residual filters (deterministic, pre-subquery).
	if len(residual) > 0 {
		pred, err := pl.lowerConjuncts(residual, node.Schema(), nil)
		if err != nil {
			return nil, err
		}
		node = plan.NewSelect(node, pred)
	}
	// 4. Subquery conjuncts (nested aggregates): each one joins the
	// subquery's aggregate output into the tree, Figure 2(a) style.
	for _, c := range subqueryConjs {
		var err error
		node, err = pl.attachSubqueryConjunct(node, c, filtered)
		if err != nil {
			return nil, err
		}
	}
	return node, nil
}

// pushConjuncts places residual conjuncts for a FROM list of n entries, where
// entry resolves a column to the entry it reads (-1 when it resolves to
// none). A conjunct whose columns all come from one entry goes onto it. The
// rest stay above the joins: one that reads no column, one that reads two
// entries, and one whose column does not resolve (lowering reports it). An
// OR that stays above also implies, for each entry t, the OR of every
// disjunct's conjuncts on t when each disjunct has some (TPC-H Q7's
// n1.n_name and n2.n_name); that implied OR goes onto t as well.
func pushConjuncts(conjs []ExprNode, n int, entry func(*Ident) int) (pushed [][]ExprNode, above []ExprNode) {
	pushed = make([][]ExprNode, n)
	for _, c := range conjs {
		if t := soleEntry(c, entry); t >= 0 {
			pushed[t] = append(pushed[t], c)
			continue
		}
		above = append(above, c)
		for t := range pushed {
			if implied := impliedOn(c, t, entry); implied != nil {
				pushed[t] = append(pushed[t], implied)
			}
		}
	}
	return pushed, above
}

// soleEntry is the one FROM entry whose columns e reads, or -1 when e reads
// none, several, or a column that resolves nowhere.
func soleEntry(e ExprNode, entry func(*Ident) int) int {
	t, ok := -1, true
	inspect(e, func(n ExprNode) bool {
		if id, isID := n.(*Ident); isID {
			switch i := entry(id); {
			case i < 0 || (t >= 0 && i != t):
				ok = false
			default:
				t = i
			}
		}
		return ok
	})
	if !ok {
		return -1
	}
	return t
}

// impliedOn is the predicate on entry t that an OR implies: the OR over its
// disjuncts of each one's conjuncts on t alone. It is nil when c is not an
// OR or some disjunct constrains t with none of its conjuncts.
func impliedOn(c ExprNode, t int, entry func(*Ident) int) ExprNode {
	if b, ok := c.(*BinOp); !ok || b.Op != "OR" {
		return nil
	}
	var out ExprNode
	for _, d := range splitDisjuncts(c) {
		var part ExprNode
		for _, dc := range splitConjuncts(d) {
			if soleEntry(dc, entry) == t {
				part = conjoin(part, dc)
			}
		}
		if part == nil {
			return nil
		}
		if out == nil {
			out = part
		} else {
			out = &BinOp{Op: "OR", L: out, R: part}
		}
	}
	return out
}

// finishSelect applies aggregation, HAVING and the final projection.
func (pl *Planner) finishSelect(stmt *SelectStmt, node plan.Node) (plan.Node, error) {
	inSchema := node.Schema()
	// Expand SELECT * into one item per visible column. Columns
	// synthesised by subquery compilation are hidden.
	if hasStar(stmt.Items) {
		var items []SelectItem
		for _, item := range stmt.Items {
			if !item.Star {
				items = append(items, item)
				continue
			}
			for _, c := range inSchema {
				if strings.HasPrefix(c.Table, "__subq") || strings.HasPrefix(c.Name, "__") {
					continue
				}
				items = append(items, SelectItem{
					Expr:  &Ident{Qual: c.Table, Name: c.Name},
					Alias: c.Name,
				})
			}
		}
		expanded := *stmt
		expanded.Items = items
		stmt = &expanded
	}
	needsAgg := len(stmt.GroupBy) > 0
	for _, item := range stmt.Items {
		if containsAggregate(item.Expr, pl.isAgg) {
			needsAgg = true
		}
	}
	if stmt.Having != nil && !needsAgg {
		return nil, fmt.Errorf("sql: HAVING requires aggregation")
	}
	if !needsAgg {
		// Plain projection.
		exprs := make([]expr.Expr, len(stmt.Items))
		names := make([]string, len(stmt.Items))
		for i, item := range stmt.Items {
			e, err := pl.lowerExpr(item.Expr, inSchema, nil)
			if err != nil {
				return nil, err
			}
			exprs[i] = e
			names[i] = itemName(item, i)
		}
		return plan.NewProject(node, exprs, names), nil
	}
	// Group-by keys: bare columns group directly; computed expressions are
	// pre-projected into synthetic columns (the keys must be deterministic
	// either way, paper §3.3). Select items that syntactically match a
	// computed group expression are mapped onto the projected column.
	groupIdx := make([]int, len(stmt.GroupBy))
	groupExprMap := map[string]int{} // astKey(group expr) -> group position
	var computed []ExprNode
	for i, g := range stmt.GroupBy {
		if id, ok := g.(*Ident); ok {
			idx, err := inSchema.Resolve(id.Qual, id.Name)
			if err != nil {
				return nil, err
			}
			groupIdx[i] = idx
			continue
		}
		if containsAggregate(g, pl.isAgg) || hasSubquery(g) {
			return nil, fmt.Errorf("sql: GROUP BY expression may not aggregate or nest subqueries")
		}
		groupIdx[i] = len(inSchema) + len(computed)
		groupExprMap[astKey(g)] = i
		computed = append(computed, g)
	}
	if len(computed) > 0 {
		exprs := make([]expr.Expr, 0, len(inSchema)+len(computed))
		names := make([]string, 0, len(inSchema)+len(computed))
		for i, c := range inSchema {
			exprs = append(exprs, expr.NewCol(i, c.QualifiedName(), c.Type))
			names = append(names, c.Name)
		}
		for j, g := range computed {
			e, err := pl.lowerExpr(g, inSchema, nil)
			if err != nil {
				return nil, err
			}
			exprs = append(exprs, e)
			names = append(names, fmt.Sprintf("__grp%d", j))
		}
		proj := plan.NewProject(node, exprs, names)
		// Keep the original qualifiers for the passthrough columns so
		// later name resolution still works.
		for i, c := range inSchema {
			proj.Out[i].Table = c.Table
		}
		node = proj
		inSchema = node.Schema()
	}
	// Collect aggregate calls from select items and HAVING.
	aggCalls := map[string]int{} // canonical key -> spec index
	var specs []plan.AggSpec
	collect := func(e ExprNode) error {
		return walkAggCalls(e, pl.isAgg, func(fc *FuncCall) error {
			key := astKey(fc)
			if _, ok := aggCalls[key]; ok {
				return nil
			}
			fn, err := pl.aggFunc(fc)
			if err != nil {
				return err
			}
			spec := plan.AggSpec{Fn: fn, Name: fmt.Sprintf("%s%s_%d", stmt.aggPrefix, strings.ToLower(fn.Name), len(specs))}
			if fc.Star {
				if fn.Name != "COUNT" {
					return fmt.Errorf("sql: %s(*) is not valid", fn.Name)
				}
			} else {
				if len(fc.Args) != 1 {
					return fmt.Errorf("sql: aggregate %s takes one argument", fn.Name)
				}
				arg, err := pl.lowerExpr(fc.Args[0], inSchema, nil)
				if err != nil {
					return err
				}
				spec.Arg = arg
			}
			aggCalls[key] = len(specs)
			specs = append(specs, spec)
			return nil
		})
	}
	for _, item := range stmt.Items {
		if err := collect(item.Expr); err != nil {
			return nil, err
		}
	}
	if stmt.Having != nil {
		if err := collect(stmt.Having); err != nil {
			return nil, err
		}
	}
	if len(specs) == 0 {
		// GROUP BY with no aggregates = DISTINCT over the group columns.
		specs = nil
	}
	aggNode := plan.NewAggregate(node, groupIdx, specs)
	var cur plan.Node = aggNode
	// Post-aggregation lowering map: aggregate call -> output col.
	aggMap := map[string]int{}
	for key, si := range aggCalls {
		aggMap[key] = len(groupIdx) + si
	}
	// HAVING: may itself contain scalar subqueries (e.g. TPC-H Q11).
	if stmt.Having != nil {
		var plainConjs []ExprNode
		for _, c := range splitConjuncts(stmt.Having) {
			if !hasSubquery(c) {
				plainConjs = append(plainConjs, c)
				continue
			}
			var err error
			if cur, err = pl.attachScalarComparison(cur, c, aggMap, nil); err != nil {
				return nil, err
			}
		}
		if len(plainConjs) > 0 {
			pred, err := pl.lowerConjuncts(plainConjs, cur.Schema(), aggMap)
			if err != nil {
				return nil, err
			}
			cur = plan.NewSelect(cur, pred)
		}
	}
	// Final projection over the aggregate output.
	exprs := make([]expr.Expr, len(stmt.Items))
	names := make([]string, len(stmt.Items))
	for i, item := range stmt.Items {
		if pos, ok := groupExprMap[astKey(item.Expr)]; ok {
			// The item is (syntactically) a computed group expression:
			// read the group key column directly.
			c := cur.Schema()[pos]
			exprs[i] = expr.NewCol(pos, c.Name, c.Type)
			names[i] = itemName(item, i)
			continue
		}
		e, err := pl.lowerExpr(item.Expr, cur.Schema(), aggMap)
		if err != nil {
			return nil, err
		}
		exprs[i] = e
		names[i] = itemName(item, i)
	}
	return plan.NewProject(cur, exprs, names), nil
}

func hasStar(items []SelectItem) bool {
	for _, item := range items {
		if item.Star {
			return true
		}
	}
	return false
}

func itemName(item SelectItem, i int) string {
	if item.Alias != "" {
		return item.Alias
	}
	if id, ok := item.Expr.(*Ident); ok {
		return id.Name
	}
	if fc, ok := item.Expr.(*FuncCall); ok {
		return strings.ToLower(fc.Name)
	}
	return fmt.Sprintf("col%d", i)
}

// planTableRef lowers one FROM entry.
func (pl *Planner) planTableRef(ref TableRef) (plan.Node, error) {
	if ref.Subquery != nil {
		sub, _, err := pl.planSelect(ref.Subquery)
		if err != nil {
			return nil, err
		}
		// Requalify the derived table's output columns with its alias.
		proj, ok := sub.(*plan.Project)
		if !ok {
			exprs := make([]expr.Expr, len(sub.Schema()))
			names := make([]string, len(sub.Schema()))
			for i, c := range sub.Schema() {
				exprs[i] = expr.NewCol(i, c.Name, c.Type)
				names[i] = c.Name
			}
			proj = plan.NewProject(sub, exprs, names)
		}
		proj.Out = proj.Out.WithTable(ref.Alias)
		return proj, nil
	}
	schema, ok := pl.cat.Schema(ref.Table)
	if !ok {
		return nil, fmt.Errorf("sql: unknown table %q", ref.Table)
	}
	return plan.NewScan(strings.ToLower(ref.Table), ref.Alias, schema, pl.cat.Streamed(ref.Table)), nil
}
