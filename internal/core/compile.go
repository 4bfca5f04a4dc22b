package core

import (
	"fmt"
	"slices"

	"iolap/internal/agg"
	"iolap/internal/delta"
	"iolap/internal/exec"
	"iolap/internal/expr"
	"iolap/internal/plan"
	"iolap/internal/rel"
	"iolap/internal/share"
)

// The online query rewriter (Section 7, step "online query rewriting").
// Three transformations happen at compile time:
//
//  1. PROJECT inlining: projection expressions are substituted into their
//     consumers, so rows flowing between online operators carry only base
//     attributes and lineage references. This folds deterministic
//     sub-expressions into consumers (Section 6.1 "folding deterministic
//     value") and makes lazy evaluation universal: any uncertain value is
//     recomputed from its lineage reference at use time.
//  2. Uncertainty tagging (Section 4.1) via plan.Analyze.
//  3. Operator replacement: each logical node becomes its online
//     counterpart, parameterised by the tagging (which predicate columns
//     are uncertain, which aggregate arguments are lazy, which join sides
//     need state).
//
// The root projection is absorbed into the SINK operator (Section 4.2 adds
// a virtual SINK at the end of every plan).

// compiled is the result of compiling a logical plan for online execution.
// It also carries what every operator's construction reads — the analysis,
// the scale exponents, the options and the estimator — so build takes only
// the node.
type compiled struct {
	sink     *opSink
	ops      []operator // all operators (for snapshot/state accounting)
	analysis *plan.Analysis
	norm     plan.Node // normalized plan (diagnostics)
	table    string    // the plan's one streamed table
	scaleExp []int     // per node (plan.ScaleExp)
	opts     Options
	est      *estimator
	// weights draws the streamed table's weight vectors for the operators
	// that read them (nil with the bootstrap off).
	weights *weigher
	// spill is the engine's join-state budget; persistent join stores are
	// registered with it at build time (nil = never spill).
	spill *delta.SpillPolicy

	// db is the database the plan compiles against; shared-state builds
	// (shared.go) need it to replay static subtrees at compile time.
	db *exec.DB
	// Shared-state bookkeeping (Options.SharedState): releases to run on
	// Close, the resources this plan references, and how much state cache
	// hits avoided rebuilding.
	releases       []func()
	sharedRefs     []share.Sized
	sharedHitBytes int64
}

// compile builds the online operator tree for a finalized plan, which must
// read exactly one streamed table. spill, when non-nil, is the
// resident-state budget the persistent join stores register with; db backs
// compile-time shared-state builds (Options.SharedState).
func compile(root plan.Node, db *exec.DB, opts Options, spill *delta.SpillPolicy) (*compiled, error) {
	if opts.Mode == ModeHDA {
		// DBToaster-style higher-order delta: apply the Appendix-B
		// viewlet-transformation rewrites before execution.
		root = plan.NewRewriter(agg.NewRegistry()).Rewrite(root)
		plan.Finalize(root)
	}
	norm, rootExprs, rootNames, err := normalizePlan(root)
	if err != nil {
		return nil, err
	}
	n := plan.Finalize(norm)
	an, err := plan.Analyze(norm, n)
	if err != nil {
		return nil, err
	}
	if err := plan.Validate(norm); err != nil {
		return nil, err
	}
	if err := checkResidualProjects(norm, an); err != nil {
		return nil, err
	}
	var streamed []string
	for _, s := range plan.StreamedScans(norm) {
		if !slices.Contains(streamed, s.Table) {
			streamed = append(streamed, s.Table)
		}
	}
	if len(streamed) != 1 {
		return nil, fmt.Errorf("core: exactly one streamed table required, plan has %d (%v)",
			len(streamed), streamed)
	}
	est, err := newEstimator(opts, an.Nested)
	if err != nil {
		return nil, err
	}
	c := &compiled{
		analysis: an,
		norm:     norm,
		table:    streamed[0],
		scaleExp: plan.ScaleExp(norm, n),
		opts:     opts,
		est:      est,
		weights:  newWeigher(streamed[0], opts),
		spill:    spill,
		db:       db,
	}
	child, err := c.build(norm)
	if err != nil {
		// Shared state acquired before the failure must not leak its refs.
		c.releaseShared()
		return nil, err
	}
	if rootExprs == nil {
		// Identity projection over the child schema.
		cs := norm.Schema()
		rootExprs = make([]expr.Expr, len(cs))
		rootNames = make([]string, len(cs))
		for i, col := range cs {
			rootExprs[i] = expr.NewCol(i, col.QualifiedName(), col.Type)
			rootNames[i] = col.Name
		}
	}
	uncOut := make([]bool, len(rootExprs))
	info := an.Info[norm.ID()]
	for i, e := range rootExprs {
		for _, cidx := range e.Cols(nil) {
			if info.UncertainCols[cidx] {
				uncOut[i] = true
			}
		}
	}
	c.sink = &opSink{
		child:    child,
		exprs:    rootExprs,
		unc:      uncOut,
		schema:   sinkSchema(rootExprs, rootNames),
		scaleExp: c.scaleExp[norm.ID()],
		est:      c.est,
	}
	c.ops = append(c.ops, c.sink)
	return c, nil
}

func sinkSchema(exprs []expr.Expr, names []string) rel.Schema {
	out := make(rel.Schema, len(exprs))
	for i, e := range exprs {
		out[i] = rel.Column{Name: names[i], Type: e.Type()}
	}
	return out
}

// normalizePlan inlines projections and splits off the root projection.
func normalizePlan(root plan.Node) (plan.Node, []expr.Expr, []string, error) {
	n, err := inlineProjects(root)
	if err != nil {
		return nil, nil, nil, err
	}
	if p, ok := n.(*plan.Project); ok {
		return p.Child, p.Exprs, p.Names, nil
	}
	return n, nil, nil, nil
}

// identityExprs builds pass-through expressions over a schema.
func identityExprs(s rel.Schema) []expr.Expr {
	out := make([]expr.Expr, len(s))
	for i, c := range s {
		out[i] = expr.NewCol(i, c.QualifiedName(), c.Type)
	}
	return out
}

// inlineProjects rewrites the plan so that Project nodes bubble to the root
// or disappear into consumers; Projects that cannot be inlined (under
// Union, or joins keyed on computed columns) remain in place.
func inlineProjects(n plan.Node) (plan.Node, error) {
	switch t := n.(type) {
	case *plan.Scan:
		// Clone: the normalized plan gets fresh operator ids, which must
		// never leak back into the caller's plan (a plan may be compiled
		// by several engines).
		s := plan.NewScan(t.Table, t.Alias, nil, t.Streamed)
		s.Out = t.Out
		return s, nil

	case *plan.Project:
		c, err := inlineProjects(t.Child)
		if err != nil {
			return nil, err
		}
		if p, ok := c.(*plan.Project); ok {
			// Compose Project over Project.
			exprs := make([]expr.Expr, len(t.Exprs))
			for i, e := range t.Exprs {
				exprs[i] = expr.Substitute(e, p.Exprs)
			}
			np := plan.NewProject(p.Child, exprs, t.Names)
			np.Out = t.Out
			return np, nil
		}
		np := plan.NewProject(c, t.Exprs, t.Names)
		np.Out = t.Out
		return np, nil

	case *plan.Select:
		c, err := inlineProjects(t.Child)
		if err != nil {
			return nil, err
		}
		if p, ok := c.(*plan.Project); ok {
			// Hoist: σθ(πE(R)) = πE(σ_{θ∘E}(R)).
			pred := expr.Substitute(t.Pred, p.Exprs)
			np := plan.NewProject(plan.NewSelect(p.Child, pred), p.Exprs, p.Names)
			np.Out = p.Out
			return np, nil
		}
		return plan.NewSelect(c, t.Pred), nil

	case *plan.Join:
		l, err := inlineProjects(t.L)
		if err != nil {
			return nil, err
		}
		r, err := inlineProjects(t.R)
		if err != nil {
			return nil, err
		}
		lp, lIsP := l.(*plan.Project)
		rp, rIsP := r.(*plan.Project)
		// Resolve keys through projections; bail out of inlining a side
		// whose key is computed.
		mapKeys := func(keys []int, p *plan.Project) ([]int, bool) {
			out := make([]int, len(keys))
			for i, k := range keys {
				col, ok := p.Exprs[k].(*expr.Col)
				if !ok {
					return nil, false
				}
				out[i] = col.Idx
			}
			return out, true
		}
		lKeys, rKeys := t.LKeys, t.RKeys
		var lExprs, rExprs []expr.Expr
		var lNames, rNames []string
		lChild, rChild := l, r
		if lIsP {
			if mk, ok := mapKeys(lKeys, lp); ok {
				lKeys = mk
				lExprs = lp.Exprs
				lNames = lp.Names
				lChild = lp.Child
			} else {
				lIsP = false
			}
		}
		if rIsP {
			if mk, ok := mapKeys(rKeys, rp); ok {
				rKeys = mk
				rExprs = rp.Exprs
				rNames = rp.Names
				rChild = rp.Child
			} else {
				rIsP = false
			}
		}
		if !lIsP && !rIsP {
			return plan.NewJoin(lChild, rChild, lKeys, rKeys), nil
		}
		// Hoist a combined projection above the join.
		if lExprs == nil {
			lExprs = identityExprs(lChild.Schema())
			lNames = lChild.Schema().Names()
		}
		if rExprs == nil {
			rExprs = identityExprs(rChild.Schema())
			rNames = rChild.Schema().Names()
		}
		lw := len(lChild.Schema())
		rShift := make([]expr.Expr, len(rChild.Schema()))
		for i, col := range rChild.Schema() {
			rShift[i] = expr.NewCol(lw+i, col.QualifiedName(), col.Type)
		}
		join := plan.NewJoin(lChild, rChild, lKeys, rKeys)
		exprs := make([]expr.Expr, 0, len(lExprs)+len(rExprs))
		names := make([]string, 0, len(lExprs)+len(rExprs))
		for i, e := range lExprs {
			exprs = append(exprs, e)
			names = append(names, lNames[i])
		}
		for i, e := range rExprs {
			exprs = append(exprs, expr.Substitute(e, rShift))
			names = append(names, rNames[i])
		}
		np := plan.NewProject(join, exprs, names)
		// Preserve the original qualified output schema.
		np.Out = t.Schema()
		return np, nil

	case *plan.Union:
		l, err := inlineProjects(t.L)
		if err != nil {
			return nil, err
		}
		r, err := inlineProjects(t.R)
		if err != nil {
			return nil, err
		}
		// Projects stay on the union sides (cannot hoist two different
		// projection lists); checkResidualProjects validates them.
		return plan.NewUnion(l, r), nil

	case *plan.Aggregate:
		c, err := inlineProjects(t.Child)
		if err != nil {
			return nil, err
		}
		if p, ok := c.(*plan.Project); ok {
			groupBy := make([]int, len(t.GroupBy))
			inlinable := true
			for i, g := range t.GroupBy {
				col, isCol := p.Exprs[g].(*expr.Col)
				if !isCol {
					inlinable = false
					break
				}
				groupBy[i] = col.Idx
			}
			if inlinable {
				specs := make([]plan.AggSpec, len(t.Aggs))
				for i, sp := range t.Aggs {
					ns := sp
					if sp.Arg != nil {
						ns.Arg = expr.Substitute(sp.Arg, p.Exprs)
					}
					specs[i] = ns
				}
				na := plan.NewAggregate(p.Child, groupBy, specs)
				// Preserve the aggregate's visible schema (names and
				// qualifiers from the original projection).
				na.Out = t.Schema()
				return na, nil
			}
		}
		na := plan.NewAggregate(c, t.GroupBy, t.Aggs)
		na.Out = t.Schema()
		return na, nil
	}
	return nil, fmt.Errorf("core: cannot normalize %T", n)
}

// checkResidualProjects verifies that any Project left in the plan (only
// possible under Union or above non-inlinable joins) does not compute new
// uncertain values: each uncertain output must be a bare reference to an
// aggregate output, otherwise downstream states would hold stale
// materialised values. This is a documented engine restriction; the planner
// never produces such shapes for the supported query class.
func checkResidualProjects(root plan.Node, an *plan.Analysis) error {
	var err error
	plan.Walk(root, func(n plan.Node) {
		if err != nil {
			return
		}
		p, ok := n.(*plan.Project)
		if !ok {
			return
		}
		info := an.Info[p.ID()]
		for i, unc := range info.UncertainCols {
			if unc && info.AggSource[i] < 0 {
				err = fmt.Errorf("core: unsupported plan: projection %q computes an uncertain value under a union/join barrier", p.Names[i])
			}
		}
	})
	return err
}

// build constructs the online operator for a plan node.
func (c *compiled) build(n plan.Node) (operator, error) {
	switch t := n.(type) {
	case *plan.Scan:
		op := newOpScan(t, c.opts)
		c.ops = append(c.ops, op)
		return op, nil

	case *plan.Select:
		child, err := c.build(t.Child)
		if err != nil {
			return nil, err
		}
		childInfo := c.analysis.Info[t.Child.ID()]
		uncPred := false
		for _, col := range t.Pred.Cols(nil) {
			if childInfo.UncertainCols[col] {
				uncPred = true
			}
		}
		op := &opSelect{node: t, child: child, predUncertain: uncPred}
		if !uncPred {
			// Deterministic predicate directly above a streamed scan:
			// compile the columnar form once, and the banks it reads. A miss
			// (another child, or a shape outside CompileVec's subset) keeps
			// vec nil and the operator on the row path.
			if sc, ok := child.(*opScan); ok && sc.node.Streamed {
				if vp, ok := expr.CompileVec(t.Pred); ok {
					op.vec, op.scan = vp, sc
					op.need = make([]bool, len(t.Child.Schema()))
					for _, col := range vp.Cols(nil) {
						op.need[col] = true
					}
				}
			}
		}
		c.ops = append(c.ops, op)
		return op, nil

	case *plan.Project:
		child, err := c.build(t.Child)
		if err != nil {
			return nil, err
		}
		op := &opProject{node: t, child: child}
		c.ops = append(c.ops, op)
		return op, nil

	case *plan.Join:
		l, err := c.build(t.L)
		if err != nil {
			return nil, err
		}
		lInfo, rInfo := c.analysis.Info[t.L.ID()], c.analysis.Info[t.R.ID()]
		cacheL := rInfo.Grows || rInfo.TupleUncertain
		cacheR := lInfo.Grows || lInfo.TupleUncertain
		if c.opts.Mode == ModeHDA {
			// HDA aggregates re-emit all groups every batch as
			// tuple-uncertain rows (delete+insert updates), so a side
			// facing an aggregate over incomplete data must be cached to
			// recompute the join.
			cacheL = cacheL || rInfo.Incomplete
			cacheR = cacheR || lInfo.Incomplete
		}
		if store, ok, err := c.acquireSharedBuild(t, cacheL, cacheR); err != nil {
			return nil, err
		} else if ok {
			// Frozen shared build side: the right subtree's rows live in
			// the cache's store; a stub replaces its operators and the
			// join probes the store read-only (shared.go).
			stub := &opSharedBuild{node: t.R}
			c.ops = append(c.ops, stub)
			op := &opJoin{node: t, l: l, r: stub, rStore: store, sharedR: true}
			c.ops = append(c.ops, op)
			return op, nil
		}
		r, err := c.build(t.R)
		if err != nil {
			return nil, err
		}
		op := c.newOpJoin(t, l, r, cacheL, cacheR)
		c.ops = append(c.ops, op)
		return op, nil

	case *plan.Union:
		l, err := c.build(t.L)
		if err != nil {
			return nil, err
		}
		r, err := c.build(t.R)
		if err != nil {
			return nil, err
		}
		op := &opUnion{node: t, l: l, r: r}
		c.ops = append(c.ops, op)
		return op, nil

	case *plan.Aggregate:
		if op, ok, err := c.acquireSharedAgg(t); err != nil {
			return nil, err
		} else if ok {
			// Shared inner aggregate: the whole subtree's state lives in a
			// cached entry; the session keeps only a range cursor
			// (shared.go).
			c.ops = append(c.ops, op)
			return op, nil
		}
		child, err := c.build(t.Child)
		if err != nil {
			return nil, err
		}
		op := newOpAgg(t, child, c.analysis, c.scaleExp[t.Child.ID()], c.opts, c.est)
		c.ops = append(c.ops, op)
		return op, nil
	}
	return nil, fmt.Errorf("core: cannot build operator for %T", n)
}
