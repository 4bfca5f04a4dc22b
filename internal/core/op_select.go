package core

import (
	"sync/atomic"

	"iolap/internal/cluster"
	"iolap/internal/delta"
	"iolap/internal/expr"
	"iolap/internal/plan"
	"iolap/internal/rel"
)

// opSelect implements the SELECT delta rule (Sections 4.2 and 5.2): rows
// whose predicate decision is deterministic under the current variation
// ranges pass or drop permanently; the rest form the non-deterministic set
// U_i, saved in the operator state and re-evaluated every batch. When the
// range of the uncertain operand narrows enough, state rows are promoted
// (emitted as certain) or discarded.
type opSelect struct {
	emitCounts
	node          *plan.Select
	child         operator
	predUncertain bool
	// vec is the columnar form of the predicate, compiled at build time for
	// a deterministic predicate inside expr.CompileVec's subset directly
	// above a streamed scan; nil keeps the row path. scan is that scan and
	// need marks the predicate's columns, the only banks the select builds.
	vec   *expr.Vectorized
	scan  *opScan
	need  []bool
	state delta.RowSet // the non-deterministic set U_i
	// redraws counts the vectors the last step drew for tuples of earlier
	// batches (OpStat.Redraws).
	redraws int
}

// columns builds the predicate's column banks over the scan's batch when
// this step may take the vectorized filter: a compiled predicate, the
// columnar filter on (Options.NoVectorize off), no lineage refs in the banks
// (EvalCols has no Resolver), and no pending non-deterministic state (with a
// deterministic predicate the state is always empty, so this is a pure
// invariant check). The child is the scan, so in.news[i] is tuple i of the
// scan's delta. The banks live for this step only: nothing else reads them.
func (o *opSelect) columns(bc *batchContext) *rel.Columns {
	if o.vec == nil || !bc.vec || o.state.Len() > 0 {
		return nil
	}
	d := bc.delta[o.scan.node.Table]
	cols := rel.ToColumnsSubset(d.Schema, d.Tuples, o.need)
	if cols.HasRefs() {
		return nil
	}
	return cols
}

func (o *opSelect) classify(r delta.Row, bc *batchContext) expr.Tri {
	if !bc.prune {
		// HDA: no variation ranges — every decision involving an
		// uncertain aggregate stays non-deterministic forever.
		return expr.Unknown
	}
	return expr.Decide(o.node.Pred, r.Vals, bc)
}

// selVerdict is one row's precomputed per-batch SELECT decision: its
// classification under the current variation ranges and — only when that is
// still non-deterministic — the current-value predicate outcome.
type selVerdict struct {
	tri  expr.Tri
	pass bool
}

// classifyAll computes verdicts for a row set. Classification and predicate
// evaluation are pure reads of the row and the published aggregate tables,
// so large sets fan out over contiguous chunks; writing verdict i into slot
// i keeps the subsequent (sequential) merge identical to the one-row-at-a-
// time loop. regen additionally pays the per-row regeneration cost of the
// non-lazy modes (ModeOPT1/ModeHDA state refresh).
func (o *opSelect) classifyAll(rows []delta.Row, bc *batchContext, regen bool) []selVerdict {
	vs := make([]selVerdict, len(rows))
	fill := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			r := rows[i]
			if regen && !bc.lazy {
				regenerate(r, bc)
			}
			v := selVerdict{tri: o.classify(r, bc)}
			if v.tri != expr.True && v.tri != expr.False {
				v.pass = expr.Holds(o.node.Pred, r.Vals, bc)
			}
			vs[i] = v
		}
	}
	bc.run.Chunks(cluster.CostSelect, len(rows), fill)
	return vs
}

// filterAll evaluates the predicate under current values for every row,
// chunk-parallel for large sets.
func (o *opSelect) filterAll(rows []delta.Row, bc *batchContext) []bool {
	pass := make([]bool, len(rows))
	fill := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			pass[i] = expr.Holds(o.node.Pred, rows[i].Vals, bc)
		}
	}
	bc.run.Chunks(cluster.CostSelect, len(rows), fill)
	return pass
}

func (o *opSelect) step(bc *batchContext) (output, error) {
	in, err := o.child.step(bc)
	if err != nil {
		return output{}, err
	}
	var out output
	o.redraws = 0
	// 1. Refresh and re-classify the non-deterministic set (this is the
	// recomputation the paper's Figure 8(e,f) counts). Verdicts are
	// computed partition-parallel; promotion/pruning stays a sequential
	// ordered merge.
	if o.state.Len() > 0 {
		bc.recomputed += o.state.Len()
		vs := o.classifyAll(o.state.Rows, bc, true)
		kept := o.state.Rows[:0]
		for i, r := range o.state.Rows {
			switch vs[i].tri {
			case expr.True:
				out.news = append(out.news, r) // promoted: decision final
			case expr.False:
				// pruned permanently
			default:
				kept = append(kept, r)
				if vs[i].pass {
					out.unc = append(out.unc, r)
				}
			}
		}
		o.state.Rows = kept
	}
	// 2. New certain input rows.
	if len(in.news) > 0 && !o.predUncertain {
		var pass []bool
		if cols := o.columns(bc); cols != nil {
			// Columnar filter: the predicate evaluates whole column spans
			// into the selection slice, chunk-parallel (EvalCols is
			// stateless). Verdict-identical to filterAll — CompileVec pins
			// the row path's acceptance test — so the appended rows and
			// their order match the row branch exactly.
			pass = make([]bool, len(in.news))
			bc.run.Chunks(cluster.CostSelect, len(in.news), func(lo, hi int) {
				o.vec.EvalCols(cols, lo, hi, pass[lo:hi])
			})
		} else {
			pass = o.filterAll(in.news, bc)
		}
		for i, r := range in.news {
			if pass[i] {
				out.news = append(out.news, r)
			}
		}
	} else if len(in.news) > 0 {
		vs := o.classifyAll(in.news, bc, false)
		// Rows pass or drop by index; the set reads the vectors of the rows
		// it keeps, so it fills just those, and owns them: one chunk for the
		// step.
		var nd []delta.Row
		var ndPass []bool
		for i, r := range in.news {
			switch vs[i].tri {
			case expr.True:
				out.news = append(out.news, r)
			case expr.False:
			default:
				nd = append(nd, r)
				ndPass = append(ndPass, vs[i].pass)
			}
		}
		o.redraws = bc.weights.fill(bc.run, nd)
		floats := 0
		for _, r := range nd {
			floats += len(r.W)
		}
		chunk := delta.NewWeightChunk(floats)
		for k, r := range nd {
			r = chunk.Own(r)
			o.state.Add(r)
			if ndPass[k] {
				out.unc = append(out.unc, r)
			}
		}
	}
	// 3. Upstream tuple-uncertain rows: filter by current values; their
	// uncertainty is owned upstream, so they stay uncertain here.
	bc.recomputed += len(in.unc)
	if len(in.unc) > 0 {
		pass := o.filterAll(in.unc, bc)
		for i, r := range in.unc {
			if pass[i] {
				out.unc = append(out.unc, r)
			}
		}
	}
	o.record(out)
	return out, nil
}

// regenSink defeats dead-code elimination of the OPT1 regeneration work.
// Atomic because regeneration now runs inside partition-parallel loops.
var regenSink atomic.Int64

// regenerate simulates the non-lazy refresh of a state row (ModeOPT1 /
// ModeHDA): instead of dereferencing lineage in place, the row is rebuilt —
// cloned and its uncertain attributes re-fetched through the per-batch
// broadcast-joined aggregate output — which is what "regenerating the tuple
// from scratch" costs in-process (the paper's version additionally pays
// I/O and shuffle, which the cluster metrics account separately). The clone
// is that cost and the engine's only write to row values: it lands in the
// private copy, never in r, which state and snapshots share (delta.Row).
func regenerate(r delta.Row, bc *batchContext) {
	rr := r.Clone()
	for i, v := range rr.Vals {
		if v.IsRef() {
			if uv, ok := bc.ResolveRef(v.Ref()); ok {
				rr.Vals[i] = uv.Value
			}
		}
	}
	regenSink.Add(int64(len(rr.Vals)))
}

func (o *opSelect) snapshot() interface{}    { return o.state.Snapshot() }
func (o *opSelect) restore(snap interface{}) { o.state.Restore(snap.(*delta.RowSet)) }
func (o *opSelect) stateBytes() int          { return o.state.SizeBytes() }
func (o *opSelect) kind() string             { return "select" }
