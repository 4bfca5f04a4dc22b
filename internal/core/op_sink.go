package core

import (
	"iolap/internal/bootstrap"
	"iolap/internal/cluster"
	"iolap/internal/delta"
	"iolap/internal/expr"
	"iolap/internal/rel"
)

// opSink is the virtual SINK operator (Section 4.2): it accumulates the
// certain result rows, re-receives the tuple-uncertain ones each batch, and
// materialises the partial result Q(D_i, m_i) with bootstrap error
// estimates.
type opSink struct {
	emitCounts
	child  operator
	exprs  []expr.Expr
	unc    []bool // which output columns can be uncertain
	schema rel.Schema
	// scaleExp is the root's streamed-scan exponent: result tuples of a
	// non-aggregated query logically carry multiplicity m_i^k (Section 2).
	scaleExp int
	est      *estimator

	certain delta.RowSet
	lastUnc []delta.Row
}

func (o *opSink) step(bc *batchContext) (output, error) {
	in, err := o.child.step(bc)
	if err != nil {
		return output{}, err
	}
	// The sink never reads a row's weights: it keeps none.
	for _, r := range in.news {
		r.W, r.Tuple = nil, 0
		o.certain.Rows = append(o.certain.Rows, r)
	}
	bc.recomputed += len(in.unc)
	o.lastUnc = append(o.lastUnc[:0], in.unc...)
	o.newsN, o.uncN = len(in.news), len(in.unc)
	return output{}, nil
}

// materialize renders the current partial result with error estimates.
// Rows are independent, so large results materialise partition-parallel.
func (o *opSink) materialize(bc *batchContext) (*rel.Relation, [][]bootstrap.Estimate) {
	scale := o.est.scale(bc.scale, o.scaleExp)
	rows := make([]delta.Row, 0, o.certain.Len()+len(o.lastUnc))
	rows = append(rows, o.certain.Rows...)
	rows = append(rows, o.lastUnc...)
	res := rel.NewRelation(o.schema)
	res.Tuples = make([]rel.Tuple, len(rows))
	ests := make([][]bootstrap.Estimate, len(rows))
	// emitRange renders rows [lo, hi) sharing one replicate buffer and one
	// summary scratch per range — each (row, column) estimate consumes
	// its replicates before the next reuses the buffers, so a lane pays two
	// allocations total instead of two per uncertain cell.
	emitRange := func(lo, hi int) {
		reps := make([]float64, bc.trials)
		var scratch []float64
		for idx := lo; idx < hi; idx++ {
			r := rows[idx]
			vals := make([]rel.Value, len(o.exprs))
			rowEst := make([]bootstrap.Estimate, len(o.exprs))
			for i, e := range o.exprs {
				// A certain cell, and any cell of a trial-free or exact batch, is a point.
				var v rel.Value
				cell := reps[:0]
				if o.unc[i] && bc.trials > 0 && !bc.exact {
					v, cell = cellReps(e, r.Vals, bc, reps), reps
				} else {
					v = e.Eval(r.Vals, bc)
				}
				vals[i] = v
				if v.IsNumeric() {
					rowEst[i], scratch = o.est.summarize(v.Float(), cell, scratch)
				}
			}
			res.Tuples[idx] = rel.Tuple{Vals: vals, Mult: r.Mult * scale}
			ests[idx] = rowEst
		}
	}
	bc.run.Chunks(cluster.CostSink, len(rows), emitRange)
	return res, ests
}

// cellReps evaluates one uncertain cell: it returns e's value over row and,
// when that is numeric, fills reps with its B replicates (NaN where a
// replicate is not numeric). A bare column over a lineage ref — every
// aggregate output column — resolves the ref once and copies its replicates;
// any other expression evaluates replicate by replicate (expr.Reps).
func cellReps(e expr.Expr, row []rel.Value, bc *batchContext, reps []float64) rel.Value {
	if c, ok := e.(*expr.Col); ok && row[c.Idx].IsRef() {
		uv, ok := bc.ResolveRef(row[c.Idx].Ref())
		if !ok {
			return rel.Null()
		}
		if uv.Value.IsNumeric() {
			for b := copy(reps, uv.Reps); b < len(reps); b++ {
				reps[b] = uv.Value.Float()
			}
		}
		return uv.Value
	}
	v := e.Eval(row, bc)
	if v.IsNumeric() {
		expr.Reps(e, row, bc, reps)
	}
	return v
}

// sinkSnap is a truncation snapshot: the certain set is append-only with
// immutable rows, so its length suffices; lastUnc is
// transient and recomputed by the replay batch.
type sinkSnap struct {
	certainLen int
}

func (o *opSink) snapshot() interface{} {
	return sinkSnap{certainLen: o.certain.Len()}
}

func (o *opSink) restore(snap interface{}) {
	s := snap.(sinkSnap)
	o.certain.Rows = o.certain.Rows[:s.certainLen]
	o.lastUnc = o.lastUnc[:0]
}

func (o *opSink) stateBytes() int { return o.certain.SizeBytes() }
func (o *opSink) kind() string    { return "sink" }
