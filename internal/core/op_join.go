package core

import (
	"fmt"
	"slices"

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
	// late is the side (lateL or lateR; lateNone for neither) whose news
	// come weight-free from a scan that the top of the filter chain draws
	// for (compiled.lateScan). That side keeps no store and the other holds
	// no streamed scan, so every news row of the join is built from one late
	// row, and the join reports which in output.prov.
	late lateSide
	// draw, when non-nil, is that scan when this join tops the chain
	// (compiled.drawLate): the join weights its own news (opScan.weigh), so
	// no vector is drawn for a scan row the join drops.
	draw *opScan
}

type lateSide uint8

const (
	lateNone lateSide = iota
	lateL
	lateR
)

// newOpJoin builds the join operator. The persistent side stores — the ones
// that accumulate across batches — register with the engine's spill policy;
// the transient per-batch stores step() builds stay memory-only.
func newOpJoin(t *plan.Join, l, r operator, cacheL, cacheR bool, spill *delta.SpillPolicy) *opJoin {
	op := &opJoin{node: t, l: l, r: r}
	if cacheL {
		op.lStore = delta.NewHashStore(t.LKeys)
		spill.Register(op.lStore)
	}
	if cacheR {
		op.rStore = delta.NewHashStore(t.RKeys)
		spill.Register(op.rStore)
	}
	return op
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

func (o *opJoin) joinRows(l, r delta.Row) delta.Row {
	vals := make([]rel.Value, 0, len(l.Vals)+len(r.Vals))
	vals = append(vals, l.Vals...)
	vals = append(vals, r.Vals...)
	return delta.Row{Vals: vals, Mult: l.Mult * r.Mult, W: delta.CombineWeights(l.W, r.W)}
}

// probeInto joins each probe-side row against the store and appends the
// matches to dst in probe order (store rows in insertion order per key —
// exactly the sequential nested loop's output). Large probe sets fan out
// over contiguous chunks whose per-chunk buffers are concatenated in chunk
// order; the store is read-only during the probe, so this is the
// deterministic shard → ordered merge pattern. probeIsLeft orients the
// output row (probe ⋈ match vs match ⋈ probe). counts, when non-nil, receives
// each probe row's match count, written by the chunk that probes it.
func (o *opJoin) probeInto(dst []delta.Row, probe []delta.Row, probeKeys []int, store *delta.HashStore, probeIsLeft bool, counts []int32, bc *batchContext) []delta.Row {
	join := func(p, m delta.Row) delta.Row {
		if probeIsLeft {
			return o.joinRows(p, m)
		}
		return o.joinRows(m, p)
	}
	matches := cluster.Collect(bc.run, cluster.CostJoinProbe, len(probe), func(a, b int) []delta.Row {
		var out []delta.Row
		for i, r := range probe[a:b] {
			ms := store.Probe(r.Vals, probeKeys)
			for _, m := range ms {
				out = append(out, join(r, m))
			}
			if counts != nil {
				counts[a+i] = int32(len(ms))
			}
		}
		return out
	})
	return append(dst, matches...)
}

// probeNews appends in.news ⋈ store to out.news; when in is the late side
// (late), out.prov gains the scan-batch row (in.pos) of each match's probe
// row, expanded from the per-probe match counts, so 1:n matches repeat it.
func (o *opJoin) probeNews(out *output, in output, late bool, keys []int, store *delta.HashStore, probeIsLeft bool, bc *batchContext) {
	if !late {
		out.news = o.probeInto(out.news, in.news, keys, store, probeIsLeft, nil, bc)
		return
	}
	counts := make([]int32, len(in.news))
	n0 := len(out.news)
	out.news = o.probeInto(out.news, in.news, keys, store, probeIsLeft, counts, bc)
	out.prov = slices.Grow(out.prov, len(out.news)-n0)
	for i, c := range counts {
		for p := in.pos(i); c > 0; c-- {
			out.prov = append(out.prov, p)
		}
	}
}

// probeLateBuild is batch 1's ΔL ⋈ ΔR when ΔR is the late side: the build
// side is the late rows, and a HashStore probe returns rows, not positions.
// A transient key → positions index over ΔR stands in for the per-batch
// store; it keeps the same per-key insertion order, so the output order is
// the store's, and each match's position is at hand for out.prov.
func (o *opJoin) probeLateBuild(out *output, lo, ro output, bc *batchContext) {
	lKeys, rKeys := o.node.LKeys, o.node.RKeys
	keys := make([]string, len(ro.news))
	bc.run.Gate(cluster.CostJoinBuild, len(ro.news)).Span(len(ro.news), func(a, b int) {
		for i := a; i < b; i++ {
			keys[i] = rel.EncodeKey(ro.news[i].Vals, rKeys)
		}
	})
	index := make(map[string][]int32, len(keys))
	for i, k := range keys {
		index[k] = append(index[k], int32(i))
	}
	type match struct {
		row delta.Row
		pos int32
	}
	ms := cluster.Collect(bc.run, cluster.CostJoinProbe, len(lo.news), func(a, b int) []match {
		var kb [96]byte
		var ms []match
		for _, l := range lo.news[a:b] {
			for _, i := range index[string(rel.EncodeKeyInto(kb[:0], l.Vals, lKeys))] {
				ms = append(ms, match{o.joinRows(l, ro.news[i]), ro.pos(int(i))})
			}
		}
		return ms
	})
	out.news = slices.Grow(out.news, len(ms))
	out.prov = slices.Grow(out.prov, len(ms))
	for _, m := range ms {
		out.news = append(out.news, m.row)
		out.prov = append(out.prov, m.pos)
	}
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
	// Exchange accounting: a keyed join repartitions both inputs by key;
	// a cross join broadcasts the (small) right side.
	if bc.metrics != nil {
		n := 0
		for _, r := range lo.news {
			n += r.SizeBytes()
		}
		for _, r := range lo.unc {
			n += r.SizeBytes()
		}
		m := 0
		for _, r := range ro.news {
			m += r.SizeBytes()
		}
		for _, r := range ro.unc {
			m += r.SizeBytes()
		}
		// The model ships weights with the tuples: a late side's rows are
		// charged their B weights though the chain's drawer, this join or
		// an operator above it, draws them later.
		switch o.late {
		case lateL:
			n += 8 * bc.trials * len(lo.news)
		case lateR:
			m += 8 * bc.trials * len(ro.news)
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
		o.probeNews(&out, lo, o.late == lateL, lKeys, o.rStore, true, bc)
	}
	if o.lStore != nil {
		o.probeNews(&out, ro, o.late == lateR, rKeys, o.lStore, false, bc)
	}
	if len(lo.news) > 0 && len(ro.news) > 0 {
		if o.late == lateR {
			o.probeLateBuild(&out, lo, ro, bc)
		} else {
			newR := delta.NewHashStore(rKeys)
			newR.AddBatch(ro.news, false, bc.run.Gate(cluster.CostJoinBuild, len(ro.news)))
			o.probeNews(&out, lo, o.late == lateL, lKeys, newR, true, bc)
		}
	}
	if o.draw != nil {
		// News k is built from row out.prov[k] of the scan's batch.
		o.draw.weigh(bc, out.news, out.prov)
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
			out.unc = o.probeInto(out.unc, lo.unc, lKeys, o.rStore, true, nil, bc)
		}
	}
	if len(ro.unc) > 0 && o.lStore != nil {
		out.unc = o.probeInto(out.unc, ro.unc, rKeys, o.lStore, false, nil, bc)
	}
	if len(lo.unc) > 0 && len(ro.unc) > 0 {
		uncR := delta.NewHashStore(rKeys)
		uncR.AddBatch(ro.unc, false, bc.run.Gate(cluster.CostJoinBuild, len(ro.unc)))
		out.unc = o.probeInto(out.unc, lo.unc, lKeys, uncR, true, nil, bc)
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
