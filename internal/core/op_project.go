package core

import (
	"iolap/internal/cluster"
	"iolap/internal/delta"
	"iolap/internal/expr"
	"iolap/internal/plan"
	"iolap/internal/rel"
)

// opProject handles the projections that survive inlining (under unions, or
// above joins keyed on computed columns) and never holds state (Section 4.2:
// the PROJECT operator state is always empty). Bare column references pass
// values — including lineage refs — through untouched; computed expressions
// are evaluated (the compiler guarantees they are deterministic here).
type opProject struct {
	emitCounts
	node  *plan.Project
	child operator
}

func (o *opProject) apply(rows []delta.Row, bc *batchContext) []delta.Row {
	if len(rows) == 0 {
		return nil
	}
	// Rows are independent and the expressions deterministic, so large sets
	// fill output slots chunk-parallel (slot i from row i: order preserved).
	out := make([]delta.Row, len(rows))
	fill := func(lo, hi int) {
		for ri := lo; ri < hi; ri++ {
			r := rows[ri]
			vals := make([]rel.Value, len(o.node.Exprs))
			for i, e := range o.node.Exprs {
				if col, ok := e.(*expr.Col); ok {
					vals[i] = r.Vals[col.Idx] // pass refs through
					continue
				}
				vals[i] = e.Eval(r.Vals, bc)
			}
			out[ri] = delta.Row{Vals: vals, Mult: r.Mult, W: r.W}
		}
	}
	bc.run.Chunks(cluster.CostProject, len(rows), fill)
	return out
}

func (o *opProject) step(bc *batchContext) (output, error) {
	in, err := o.child.step(bc)
	if err != nil {
		return output{}, err
	}
	out := output{news: o.apply(in.news, bc), unc: o.apply(in.unc, bc)}
	o.record(out)
	return out, nil
}

func (o *opProject) snapshot() interface{} { return nil }
func (o *opProject) restore(interface{})   {}
func (o *opProject) stateBytes() int       { return 0 }
func (o *opProject) kind() string          { return "project" }

// opUnion is stateless (Section 4.2).
type opUnion struct {
	emitCounts
	node *plan.Union
	l, r operator
}

func (o *opUnion) step(bc *batchContext) (output, error) {
	lo, err := o.l.step(bc)
	if err != nil {
		return output{}, err
	}
	ro, err := o.r.step(bc)
	if err != nil {
		return output{}, err
	}
	out := output{
		news: append(lo.news, ro.news...),
		unc:  append(lo.unc, ro.unc...),
	}
	o.record(out)
	return out, nil
}

func (o *opUnion) snapshot() interface{} { return nil }
func (o *opUnion) restore(interface{})   {}
func (o *opUnion) stateBytes() int       { return 0 }
func (o *opUnion) kind() string          { return "union" }
