package core

import (
	"fmt"

	"iolap/internal/cluster"
	"iolap/internal/delta"
	"iolap/internal/plan"
	"iolap/internal/rel"
)

// opJoin implements the JOIN delta rule (Section 4.2): each side's certain
// rows are cached iff the opposite side may still produce rows (new or
// tuple-uncertain) in later batches — so a streamed fact joined with static
// dimension tables caches only the dimensions, the optimization the paper
// calls out. The tuple-uncertain output combinations (U_L ⋈ C_R, C_L ⋈ U_R,
// U_L ⋈ U_R) are recomputed every batch.
type opJoin struct {
	emitCounts
	node           *plan.Join
	l, r           operator
	lStore, rStore *delta.HashStore
	// sharedR marks rStore as a frozen store owned by the shared-state
	// cache (shared.go): the build subtree ran once at acquire time, so the
	// store is complete and immutable. The join never writes it, excludes
	// it from this session's state accounting, and skips it in
	// snapshot/restore — restoring an immutable value is the identity, so
	// §5.1 replay touches it once (at probe time), not per session.
	sharedR bool
	// redraws counts the vectors the last step drew for tuples of earlier
	// batches (OpStat.Redraws).
	redraws int
}

// newOpJoin builds the join operator. The side stores accumulate across
// batches, keep their rows' weights as storeMode says and register with the
// engine's spill policy.
func (c *compiled) newOpJoin(t *plan.Join, l, r operator, cacheL, cacheR bool) *opJoin {
	op := &opJoin{node: t, l: l, r: r}
	if cacheL {
		op.lStore = c.stateStore(t.LKeys, t.R)
	}
	if cacheR {
		op.rStore = c.stateStore(t.RKeys, t.L)
	}
	return op
}

// stateStore builds the store of a join side facing other.
func (c *compiled) stateStore(keys []int, other plan.Node) *delta.HashStore {
	h := delta.NewStateStore(keys, c.storeMode(other))
	c.spill.Register(h)
	return h
}

// storeMode is how a join store facing the side other keeps its rows'
// weights (DESIGN.md §10, "Drawing on read"). Only other's rows probe the
// store: each new row once, and every pending row every batch. A store that
// other re-reads every batch — other is tuple-uncertain, or an HDA aggregate
// re-emits it — keeps copies, and so does one whose matches multiply other's
// own weights. Any other store keeps each row's tuple, and its matches leave
// the join by index.
func (c *compiled) storeMode(other plan.Node) delta.WeightMode {
	info := c.analysis.Info[other.ID()]
	if info.TupleUncertain || c.opts.Mode == ModeHDA && info.Incomplete || c.carriesWeights(other) {
		return delta.CopyWeights
	}
	return delta.IndexWeights
}

// carriesWeights reports whether n's rows can carry weight vectors: n reads
// a streamed scan through no aggregate, with the bootstrap on.
func (c *compiled) carriesWeights(n plan.Node) bool {
	switch t := n.(type) {
	case *plan.Scan:
		return t.Streamed && c.opts.Trials > 0
	case *plan.Aggregate:
		return false
	}
	for _, ch := range n.Children() {
		if c.carriesWeights(ch) {
			return true
		}
	}
	return false
}

// spilledRows reports how many cached join rows currently live on disk.
func (o *opJoin) spilledRows() int {
	n := 0
	if o.lStore != nil {
		n += o.lStore.SpilledRows()
	}
	if o.rStore != nil && !o.sharedR {
		n += o.rStore.SpilledRows()
	}
	return n
}

// residentBytes is the in-memory share of stateBytes (they differ only when
// shards have spilled).
func (o *opJoin) residentBytes() int {
	n := 0
	if o.lStore != nil {
		n += o.lStore.MemBytes()
	}
	if o.rStore != nil && !o.sharedR {
		n += o.rStore.MemBytes()
	}
	return n
}

// probeInto joins each probe-side row against the store and appends the
// matches to dst in probe order (store rows in insertion order per key —
// exactly the sequential nested loop's output). Large probe sets fan out
// over contiguous chunks whose per-chunk buffers are concatenated in chunk
// order; the store is read-only during the probe, so this is the
// deterministic shard → ordered merge pattern. probeIsLeft orients the
// output row (probe ⋈ match vs match ⋈ probe).
func (o *opJoin) probeInto(dst []delta.Row, probe []delta.Row, probeKeys []int, store *delta.HashStore, probeIsLeft bool, bc *batchContext) []delta.Row {
	join := func(p, m delta.Row) delta.Row {
		if probeIsLeft {
			return delta.JoinRows(p, m)
		}
		return delta.JoinRows(m, p)
	}
	matches := cluster.Collect(bc.run, cluster.CostJoinProbe, len(probe), func(a, b int) []delta.Row {
		var out []delta.Row
		for _, r := range probe[a:b] {
			for _, m := range store.Probe(r.Vals, probeKeys) {
				out = append(out, join(r, m))
			}
		}
		return out
	})
	return append(dst, matches...)
}

// joinStep appends l ⋈ r to dst for two row sets of one step (ΔL ⋈ ΔR,
// U_L ⋈ U_R). A transient key → positions index over r stands in for a
// store: it keeps a store's per-key insertion order, so the output is what
// probing a store of r would give, without copying r's rows into one.
func (o *opJoin) joinStep(dst, l, r []delta.Row, bc *batchContext) []delta.Row {
	lKeys, rKeys := o.node.LKeys, o.node.RKeys
	keys := make([]string, len(r))
	bc.run.Gate(cluster.CostJoinBuild, len(r)).Span(len(r), func(a, b int) {
		for i := a; i < b; i++ {
			keys[i] = rel.EncodeKey(r[i].Vals, rKeys)
		}
	})
	index := make(map[string][]int32, len(keys))
	for i, k := range keys {
		index[k] = append(index[k], int32(i))
	}
	matches := cluster.Collect(bc.run, cluster.CostJoinProbe, len(l), func(a, b int) []delta.Row {
		var kb [96]byte
		var out []delta.Row
		for _, row := range l[a:b] {
			for _, i := range index[string(rel.EncodeKeyInto(kb[:0], row.Vals, lKeys))] {
				out = append(out, delta.JoinRows(row, r[i]))
			}
		}
		return out
	})
	return append(dst, matches...)
}

// fill gives the rows of a side whose store keeps copies their vectors,
// before they are probed or stored: the store copies only drawn vectors
// (delta.CopyWeights), and the other side's rows carry weights too.
func (o *opJoin) fill(side output, store *delta.HashStore, bc *batchContext) {
	if store != nil && store.Mode() == delta.CopyWeights {
		o.redraws += bc.weights.fill(bc.run, side.news) + bc.weights.fill(bc.run, side.unc)
	}
}

// shipBytes is r's size on the exchange. The model ships weights with the
// tuples, so a row held by index is charged its B weights, as if drawn.
func shipBytes(r delta.Row, trials int) int {
	if r.ByIndex() {
		return r.SizeBytes() - 8 + 8*trials
	}
	return r.SizeBytes()
}

func (o *opJoin) step(bc *batchContext) (output, error) {
	lo, err := o.l.step(bc)
	if err != nil {
		return output{}, err
	}
	ro, err := o.r.step(bc)
	if err != nil {
		return output{}, err
	}
	lKeys, rKeys := o.node.LKeys, o.node.RKeys
	var out output
	o.redraws = 0
	o.fill(lo, o.lStore, bc)
	o.fill(ro, o.rStore, bc)
	// Exchange accounting: a keyed join repartitions both inputs by key;
	// a cross join broadcasts the (small) right side.
	if bc.metrics != nil {
		n := 0
		for _, r := range lo.news {
			n += shipBytes(r, bc.trials)
		}
		for _, r := range lo.unc {
			n += shipBytes(r, bc.trials)
		}
		m := 0
		for _, r := range ro.news {
			m += shipBytes(r, bc.trials)
		}
		for _, r := range ro.unc {
			m += shipBytes(r, bc.trials)
		}
		if len(lKeys) == 0 {
			// Cross join: nothing repartitions. The scalar side is
			// replicated to every worker, which is broadcast traffic, not
			// shuffle — booking it as a shuffle (the old code even recorded
			// a phantom zero-byte shuffle alongside it) skewed every
			// per-event shuffle statistic. Empty sides are dropped by
			// RecordBroadcastBytes itself.
			bc.metrics.RecordBroadcastBytes(m)
		} else {
			bc.metrics.RecordShuffleBytes(n + m)
		}
	}
	// Certain deltas (classic delta-join over the certain parts):
	// ΔL ⋈ C_R(old), C_L(old) ⋈ ΔR, ΔL ⋈ ΔR. Probes run partition-parallel
	// over the probe side; builds run partition-parallel over shards.
	if o.rStore != nil {
		out.news = o.probeInto(out.news, lo.news, lKeys, o.rStore, true, bc)
	}
	if o.lStore != nil {
		out.news = o.probeInto(out.news, ro.news, rKeys, o.lStore, false, bc)
	}
	if len(lo.news) > 0 && len(ro.news) > 0 {
		out.news = o.joinStep(out.news, lo.news, ro.news, bc)
	}
	// Fold this batch's certain rows into the stores, which share them
	// (delta.Row: rows are immutable).
	if o.lStore != nil {
		o.lStore.AddBatch(lo.news, false, bc.run.Gate(cluster.CostJoinBuild, len(lo.news)))
	}
	if o.rStore != nil && !o.sharedR {
		o.rStore.AddBatch(ro.news, false, bc.run.Gate(cluster.CostJoinBuild, len(ro.news)))
	}
	// Tuple-uncertain combinations, recomputed every batch:
	// U_L ⋈ C_R, C_L ⋈ U_R, U_L ⋈ U_R.
	bc.recomputed += len(lo.unc) + len(ro.unc)
	if len(lo.unc) > 0 {
		if o.rStore == nil && len(ro.news) == 0 && len(ro.unc) == 0 {
			return output{}, fmt.Errorf("core: join #%d: left tuple uncertainty requires a cached right side", o.node.ID())
		}
		if o.rStore != nil {
			out.unc = o.probeInto(out.unc, lo.unc, lKeys, o.rStore, true, bc)
		}
	}
	if len(ro.unc) > 0 && o.lStore != nil {
		out.unc = o.probeInto(out.unc, ro.unc, rKeys, o.lStore, false, bc)
	}
	if len(lo.unc) > 0 && len(ro.unc) > 0 {
		out.unc = o.joinStep(out.unc, lo.unc, ro.unc, bc)
	}
	o.record(out)
	return out, nil
}

type joinSnap struct {
	l, r *delta.HashSnap
}

func (o *opJoin) snapshot() interface{} {
	s := joinSnap{}
	if o.lStore != nil {
		s.l = o.lStore.Snapshot()
	}
	if o.rStore != nil && !o.sharedR {
		s.r = o.rStore.Snapshot()
	}
	return s
}

func (o *opJoin) restore(snap interface{}) {
	s := snap.(joinSnap)
	if o.lStore != nil {
		o.lStore.Restore(s.l)
	}
	if o.rStore != nil && !o.sharedR {
		o.rStore.Restore(s.r)
	}
}

func (o *opJoin) stateBytes() int {
	n := 0
	if o.lStore != nil {
		n += o.lStore.SizeBytes()
	}
	if o.rStore != nil && !o.sharedR {
		n += o.rStore.SizeBytes()
	}
	return n
}

func (o *opJoin) kind() string { return "join" }
