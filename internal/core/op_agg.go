package core

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"iolap/internal/agg"
	"iolap/internal/bootstrap"
	"iolap/internal/cluster"
	"iolap/internal/delta"
	"iolap/internal/expr"
	"iolap/internal/plan"
	"iolap/internal/rel"
)

// opAgg implements the AGGREGATE delta rule with the three-tier state of
// Sections 4.2 and 5:
//
//   - sketch: certain-multiplicity inputs whose aggregated columns are
//     deterministic fold permanently into per-group accumulator vectors
//     (running value + B bootstrap replicates) — sub-linear space.
//   - lineage rows: certain-multiplicity inputs whose aggregated columns
//     are uncertain cannot be sketched (Section 4.2); the rows are kept and
//     their contributions recomputed each batch by lazily re-evaluating the
//     aggregate arguments against the carried lineage (Section 6.2).
//   - pending: tuple-uncertain inputs arrive fresh every batch from the
//     upstream non-deterministic sets and are folded into per-batch scratch
//     accumulators.
//
// Every batch the operator publishes its current output table (value,
// replicates, variation range per group and aggregate) for lineage
// resolution, observes the variation ranges R(u) (Section 5.1, reporting
// integrity failures to the controller), and emits each group's row exactly
// once — with lineage references in the uncertain columns — as soon as the
// group's existence is certain. The table is a view: a group's values are
// computed when the step needs them, or when something reads them (aggTable).
//
// A step is four phases: assign (resolve each input row's group, in arrival
// order), fold certain (new certain rows into the sketches), fold scratch
// (lineage and pending rows into the per-batch scratch vectors) and publish.
// Both folds are the same routine, fold; DESIGN.md §10 states why its result
// does not depend on the input form or the schedule.
type opAgg struct {
	emitCounts
	node  *plan.Aggregate
	child operator

	// pubID is the id this aggregate publishes its table under and stamps
	// into lineage refs. Normally the plan node's id; a shared aggregate
	// entry (shared.go) overrides it with a session-independent id so
	// equivalent subtrees in different sessions resolve the same refs.
	pubID int

	specs     []aggSpecC
	lazySpecs int // how many specs have an uncertain argument (lazy specs)
	scaleExp  int
	trials    int
	est       *estimator
	uncInput  map[int]bool // child columns that are uncertain

	groups map[string]*aggGroup
	order  []string
	// binds: some spec has variation ranges (estimator.ranged); bound lists
	// the binding groups, which publish observes every batch.
	binds bool
	bound []*aggGroup
	// valueOut marks a certain output column: every emitted row carries a
	// value, not only lineage refs. uncOut marks an uncertain one.
	valueOut, uncOut bool
	// visits lists the groups given a certain or a pending row this batch,
	// each once — with bound, the only groups publish can emit or observe.
	visits []*aggGroup
	// live is the table published last; its read count sizes the next
	// table's first lazy slab.
	live *aggTable

	// epoch counts batches. It tags each group's scratch vectors and pending
	// mark, so both reset lazily on the group's first use in a batch
	// instead of being swept (or re-allocated) every batch.
	epoch int
	// merges pools per-spec vector sets (*[]*agg.Vector) for reading
	// sketch+scratch without cloning the sketch, one set per concurrent
	// materialisation. A pointer, and a pool without New: the runtime lists
	// a used pool until the second GC after its last use, and a pool
	// embedded here, or a New closure over the operator, would keep the
	// whole operator tree alive that long.
	merges *sync.Pool
	// redraws counts the vectors the last step drew for tuples of earlier
	// batches (OpStat.Redraws).
	redraws int
	// keyBuf is the group-key encoding scratch: lookups index the groups
	// map by string(keyBuf), which the compiler compiles to a no-copy,
	// no-allocation access; only a genuinely new group materialises the key.
	keyBuf []byte
	// fs is the fold's reusable working set.
	fs foldScratch
	// groupBytes is the estimated per-group sketch footprint (constant per
	// operator), precomputed so stateBytes never allocates probe vectors.
	groupBytes int
}

// aggSpecC is one compiled aggregate.
type aggSpecC struct {
	fn           *agg.Func
	arg          expr.Expr // nil for COUNT(*)
	argUncertain bool      // argument reads uncertain columns (lazy spec)
	lazyIdx      int       // ordinal among the lazy specs (replicate arena slot)
	uncertainOut bool      // output column carries attribute uncertainty
	outCol       int       // column index in the aggregate's output schema
}

type aggGroup struct {
	name   string        // the group's key in groups and order
	seq    int           // the group's position in order
	key    []rel.Value   // immutable: snapshots share it
	sketch []*agg.Vector // per spec (allocated lazily per group)
	lazy   delta.RowSet  // lineage rows (only with lazy specs)
	ranges []*bootstrap.Range
	// support counts the certain input rows folded so far; the estimator
	// decides from it when the group's variation ranges bind.
	support int
	certain bool
	emitted bool

	// Per-batch working values, not state — a snapshot never holds them and
	// a restore may leave them stale, which the tags make harmless: the
	// scratch vectors (valid while scratchEpoch is the operator's epoch),
	// the batch that last brought a pending row, the batch that last queued
	// the group on visits, the group's ordinal in the fold block being
	// gathered (valid while ordBlock is that block), and its published values
	// (valid for the table they name).
	scratch      []*agg.Vector
	scratchEpoch int
	pendEpoch    int
	visitEpoch   int
	ord          int32
	ordBlock     int
	pub          atomic.Pointer[aggPub]
}

func newOpAgg(t *plan.Aggregate, child operator, an *plan.Analysis, scaleExp int, opts Options, est *estimator) *opAgg {
	info := an.Info[t.ID()]
	childInfo := an.Info[t.Child.ID()]
	op := &opAgg{
		node:     t,
		child:    child,
		pubID:    t.ID(),
		scaleExp: scaleExp,
		trials:   opts.Trials,
		est:      est,
		groups:   make(map[string]*aggGroup),
		uncInput: make(map[int]bool),
	}
	for i, u := range childInfo.UncertainCols {
		if u {
			op.uncInput[i] = true
		}
	}
	for i, sp := range t.Aggs {
		c := aggSpecC{
			fn:     sp.Fn,
			arg:    sp.Arg,
			outCol: len(t.GroupBy) + i,
		}
		c.uncertainOut = info.UncertainCols[c.outCol]
		if sp.Arg != nil {
			for _, col := range sp.Arg.Cols(nil) {
				if op.uncInput[col] {
					c.argUncertain = true
				}
			}
		}
		if c.argUncertain {
			c.lazyIdx = op.lazySpecs
			op.lazySpecs++
		}
		op.binds = op.binds || est.ranged(&c)
		op.valueOut = op.valueOut || !c.uncertainOut
		op.uncOut = op.uncOut || c.uncertainOut
		op.specs = append(op.specs, c)
	}
	op.fs.spec = make([]specRuns, len(op.specs))
	op.merges = new(sync.Pool)
	op.groupBytes = 64
	for i := range op.specs {
		op.groupBytes += agg.NewVector(op.specs[i].fn, op.trials).SizeBytes()
	}
	return op
}

// newGroup registers a group under key with the given grouping values.
func (o *opAgg) newGroup(key string, keyVals []rel.Value) *aggGroup {
	g := &aggGroup{
		name:   key,
		seq:    len(o.order),
		key:    keyVals,
		sketch: make([]*agg.Vector, len(o.specs)),
		ranges: make([]*bootstrap.Range, len(o.specs)),
	}
	for i := range o.specs {
		g.sketch[i] = agg.NewVector(o.specs[i].fn, o.trials)
		if o.est.ranged(&o.specs[i]) {
			g.ranges[i] = o.est.newRange()
		}
	}
	o.groups[key] = g
	o.order = append(o.order, key)
	o.visit(g)
	return g
}

// visit queues g for this batch's publish walk, once.
func (o *opAgg) visit(g *aggGroup) {
	if g.visitEpoch != o.epoch {
		g.visitEpoch = o.epoch
		o.visits = append(o.visits, g)
	}
}

// rowGroup resolves a row's group through the reusable key scratch: the map
// lookup indexes by string(keyBuf) without allocating; only a miss (a new
// group) pays for materialising the key string.
func (o *opAgg) rowGroup(vals []rel.Value) *aggGroup {
	o.keyBuf = rel.EncodeKeyInto(o.keyBuf[:0], vals, o.node.GroupBy)
	if g, ok := o.groups[string(o.keyBuf)]; ok {
		return g
	}
	keyVals := make([]rel.Value, len(o.node.GroupBy))
	for i, c := range o.node.GroupBy {
		keyVals[i] = vals[c]
	}
	return o.newGroup(string(o.keyBuf), keyVals)
}

// scratchVec returns the group's scratch vector for one spec, resetting the
// group's scratch on its first use in the batch and allocating on first
// use. Not concurrency-safe: only the sequential gather calls it.
func (o *opAgg) scratchVec(g *aggGroup, si int) *agg.Vector {
	if g.scratchEpoch != o.epoch {
		g.scratchEpoch = o.epoch
		for _, v := range g.scratch {
			if v != nil {
				v.Reset()
			}
		}
	}
	if g.scratch == nil {
		g.scratch = make([]*agg.Vector, len(o.specs))
	}
	if g.scratch[si] == nil {
		g.scratch[si] = agg.NewVector(o.specs[si].fn, o.trials)
	}
	return g.scratch[si]
}

// argValue evaluates one aggregate argument under current values.
// ok=false means NULL (the row is skipped for this aggregate).
func argValue(sp *aggSpecC, r *delta.Row, bc *batchContext) (float64, bool) {
	if sp.arg == nil {
		return 0, true // COUNT(*)
	}
	v := sp.arg.Eval(r.Vals, bc)
	if v.IsNull() {
		return 0, false
	}
	if sp.fn.AcceptsAny {
		return v.NumericKey(), true
	}
	if !v.IsNumeric() {
		return 0, false
	}
	return v.Float(), true
}

// ---------------------------------------------------------------------------
// The fold

// foldKind says which of the operator's three input tiers an entry belongs
// to, which decides the specs it folds and the vectors they fold into.
type foldKind uint8

const (
	// foldCertain is a new certain row: its certain-argument specs fold
	// permanently into the sketch (its uncertain-argument ones fold from the
	// lineage set, every batch).
	foldCertain foldKind = iota
	// foldLineage is a retained lineage row: its uncertain-argument specs
	// fold into this batch's scratch vectors.
	foldLineage
	// foldPending is a tuple-uncertain row: every spec folds into scratch.
	foldPending
)

func (k foldKind) applies(sp *aggSpecC) bool {
	switch k {
	case foldCertain:
		return !sp.argUncertain
	case foldLineage:
		return sp.argUncertain
	}
	return true
}

// foldEntry is one input row bound for the fold, its group resolved.
type foldEntry struct {
	g    *aggGroup
	row  *delta.Row
	kind foldKind
}

// foldBlock bounds how many entries one evaluate → gather → ingest round
// carries, which bounds the working set (the replicate arena is entries ×
// lazy specs × B floats) whatever the batch size. Blocks run in arrival
// order, so cutting a batch into blocks cannot reorder any slot's operands.
const foldBlock = 4096

// foldScratch is the fold's working set, reused across blocks and batches.
// Nothing in it is operator state: every field is rewritten before it is
// read.
type foldScratch struct {
	ents []foldEntry
	// Evaluate output, entry-indexed: spec si's argument for entry i of an
	// n-entry block is val[si·n+i], folded iff ok[si·n+i]; the replicate
	// inputs of lazy spec u are rep[(i·lazySpecs+u)·B:][:B].
	val []float64
	ok  []bool
	rep []float64
	// Gather output: the block's groups in first-seen order, entry
	// positions bucketed by group (ends[g] is one past group g's bucket),
	// per-spec gathered arrays, and the runs cut from them.
	block  int
	groups []*aggGroup
	ends   []int32
	pos    []int32
	spec   []specRuns
	runs   []foldRun
	light  []int32 // the parallel schedule's light groups
}

// release drops every pointer the working set holds, spare capacity
// included: entries, groups, weight windows and replicate inputs would
// otherwise pin the step's rows, their values and vectors, until a later
// step overwrote them.
func (f *foldScratch) release() {
	clear(f.ents[:cap(f.ents)])
	clear(f.groups[:cap(f.groups)])
	for si := range f.spec {
		clear(f.spec[si].ws[:cap(f.spec[si].ws)])
		clear(f.spec[si].reps[:cap(f.spec[si].reps)])
	}
	clear(f.runs[:cap(f.runs)])
}

// size returns how many entries the block holds for group gi.
func (f *foldScratch) size(gi int) int {
	if gi == 0 {
		return int(f.ends[0])
	}
	return int(f.ends[gi] - f.ends[gi-1])
}

// specRuns holds one spec's gathered entries for a block, group after group
// in the AddBatchRun calling convention: values, multiplicities, weight
// windows and (lazy specs) replicate inputs.
type specRuns struct {
	vals, mults []float64
	ws, reps    [][]float64
}

// foldRun is one (group, spec) run: entries [lo, hi) of the spec's gathered
// arrays, all bound for vec (nil when the run is empty). Group g's run for
// spec si is runs[g·len(specs)+si].
type foldRun struct {
	vec    *agg.Vector
	lo, hi int32
}

// resized returns s with length n, reallocating only when it has to; the
// contents are unspecified.
func resized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// assignCertain resolves the group of every new certain row, in arrival
// order, and does the per-row bookkeeping that must be sequential: group
// creation (deterministic group order), support counts, lineage retention.
func (o *opAgg) assignCertain(news []delta.Row) []foldEntry {
	ents := resized(o.fs.ents, len(news))
	// Lineage rows own their vectors: one chunk for the step.
	var chunk delta.WeightChunk
	if o.lazySpecs > 0 {
		floats := 0
		for _, r := range news {
			floats += len(r.W)
		}
		chunk = delta.NewWeightChunk(floats)
	}
	for j := range news {
		r := &news[j]
		g := o.rowGroup(r.Vals)
		o.visit(g)
		g.certain = true
		g.support++
		if o.binds && o.est.binding(g.support) && !o.est.binding(g.support-1) {
			o.bound = append(o.bound, g)
		}
		if o.lazySpecs > 0 {
			g.lazy.Add(chunk.Own(*r))
		}
		ents[j] = foldEntry{g: g, row: r, kind: foldCertain}
	}
	o.fs.ents = ents
	return ents
}

// assignScratch builds the per-batch scratch worklist: lineage rows first
// (per group, in emission order), then pending tuple-uncertain rows (in
// arrival order) — the order that fixes each scratch vector's fold order.
func (o *opAgg) assignScratch(bc *batchContext, unc []delta.Row) []foldEntry {
	ents := o.fs.ents[:0]
	if o.lazySpecs > 0 {
		for _, key := range o.order {
			g := o.groups[key]
			bc.recomputed += g.lazy.Len()
			for k := range g.lazy.Rows {
				ents = append(ents, foldEntry{g: g, row: &g.lazy.Rows[k], kind: foldLineage})
			}
		}
	}
	bc.recomputed += len(unc)
	for i := range unc {
		g := o.rowGroup(unc[i].Vals)
		g.pendEpoch = o.epoch
		o.visit(g)
		ents = append(ents, foldEntry{g: g, row: &unc[i], kind: foldPending})
	}
	o.fs.ents = ents
	return ents
}

// fold is the operator's one fold body: it evaluates each entry's arguments,
// gathers the entries of every (group, spec) pair into one run in arrival
// order, and ingests each run into its vector — the group's sketch, or its
// scratch vector when scratch is set.
//
// Sequential and parallel execution are schedules of this body, not bodies
// of their own: below the cutover (or at Workers=1) the same evaluate,
// gather and ingest run inline.
func (o *opAgg) fold(bc *batchContext, ents []foldEntry, scratch bool) {
	for len(ents) > 0 {
		n := min(len(ents), foldBlock)
		block := ents[:n]
		ents = ents[n:]
		round := func(p *cluster.Pool) {
			o.evaluate(bc, block, p)
			o.gather(block, scratch)
			o.ingest(p, n)
		}
		// Trial-free folds cost ~1/(1+B) of a bootstrap fold per row;
		// feeding them into the fold estimate would poison the cutover, so
		// they neither fan out nor report.
		if o.trials > 0 {
			bc.run.Run(cluster.CostFold, n, round)
		} else {
			round(nil)
		}
	}
}

// evaluate fills the block's argument values (and, for lazy specs, replicate
// inputs) — chunked over p: it is a pure read of the rows and the published
// tables, and for lazy specs it is where the fold's time goes (O(trials)
// expression evaluations per row, plus the lineage row's regeneration in the
// non-lazy modes).
func (o *opAgg) evaluate(bc *batchContext, ents []foldEntry, p *cluster.Pool) {
	f := &o.fs
	n, B := len(ents), o.trials
	f.val = resized(f.val, n*len(o.specs))
	f.ok = resized(f.ok, n*len(o.specs))
	f.rep = resized(f.rep, n*o.lazySpecs*B)
	if p == nil { // the common case, kept free of the span closure
		o.evaluateSpan(bc, ents, 0, n)
		return
	}
	p.Span(n, func(lo, hi int) { o.evaluateSpan(bc, ents, lo, hi) })
}

// evaluateSpan evaluates entries [lo, hi) of the block; spans write disjoint
// slots of the arenas.
func (o *opAgg) evaluateSpan(bc *batchContext, ents []foldEntry, lo, hi int) {
	f := &o.fs
	n, B := len(ents), o.trials
	for i := lo; i < hi; i++ {
		e := &ents[i]
		if e.kind == foldLineage && !bc.lazy {
			regenerate(*e.row, bc)
		}
		for si := range o.specs {
			sp := &o.specs[si]
			at := si*n + i
			f.ok[at] = false
			if !e.kind.applies(sp) {
				continue
			}
			f.val[at], f.ok[at] = argValue(sp, e.row, bc)
			if f.ok[at] && sp.argUncertain && B > 0 {
				slot := (i*o.lazySpecs + sp.lazyIdx) * B
				expr.Reps(sp.arg, e.row.Vals, bc, f.rep[slot:slot+B])
			}
		}
	}
}

// gather buckets the block's entries per group — a counting sort over
// per-block group ordinals, stable, so a bucket keeps arrival order — and
// cuts each group's bucket into one run per spec, resolving the vector of
// every run that has anything to fold. Sequential: it creates and resets
// scratch vectors.
func (o *opAgg) gather(ents []foldEntry, scratch bool) {
	f := &o.fs
	n := len(ents)
	f.block++
	f.groups, f.ends = f.groups[:0], f.ends[:0]
	for i := range ents {
		g := ents[i].g
		if g.ordBlock != f.block {
			g.ordBlock, g.ord = f.block, int32(len(f.groups))
			f.groups = append(f.groups, g)
			f.ends = append(f.ends, 0)
		}
		f.ends[g.ord]++
	}
	next := int32(0)
	for gi, c := range f.ends {
		f.ends[gi] = next // bucket start, advanced to its end by the placement below
		next += c
	}
	f.pos = resized(f.pos, n)
	for i := range ents {
		gi := ents[i].g.ord
		f.pos[f.ends[gi]] = int32(i)
		f.ends[gi]++
	}
	for si := range f.spec {
		sa := &f.spec[si]
		sa.vals, sa.mults, sa.ws, sa.reps = sa.vals[:0], sa.mults[:0], sa.ws[:0], sa.reps[:0]
	}
	S := len(o.specs)
	f.runs = resized(f.runs, len(f.groups)*S)
	B, lo := o.trials, int32(0)
	for gi, g := range f.groups {
		hi := f.ends[gi]
		for si := range o.specs {
			sp, sa := &o.specs[si], &f.spec[si]
			from := len(sa.vals)
			for _, i := range f.pos[lo:hi] {
				if !f.ok[si*n+int(i)] {
					continue // NULL, or the spec does not fold this tier
				}
				r := ents[i].row
				sa.vals = append(sa.vals, f.val[si*n+int(i)])
				sa.mults = append(sa.mults, r.Mult)
				if B > 0 {
					sa.ws = append(sa.ws, r.W)
					if sp.argUncertain {
						slot := (int(i)*o.lazySpecs + sp.lazyIdx) * B
						sa.reps = append(sa.reps, f.rep[slot:slot+B])
					}
				}
			}
			run := foldRun{lo: int32(from), hi: int32(len(sa.vals))}
			if run.hi > run.lo {
				run.vec = g.sketch[si]
				if scratch {
					run.vec = o.scratchVec(g, si)
				}
			}
			f.runs[gi*S+si] = run
		}
		lo = hi
	}
}

// ingest folds every group's runs into their vectors. Groups own distinct
// vectors, so any schedule gives the same result; inline they fold in
// first-seen order. On a pool a group holding more than an even per-worker
// share of the block cannot be balanced by placement (on skewed keys one
// worker would inherit nearly the whole block), so its runs split the
// replicate dimension across the pool; the rest become size-hinted tasks
// (Pool.MapSized), so many small groups pack evenly no matter how the keys
// hash.
func (o *opAgg) ingest(p *cluster.Pool, n int) {
	f := &o.fs
	if p == nil {
		for gi := range f.groups {
			o.ingestGroup(gi, nil, 0)
		}
		return
	}
	w := p.Workers()
	light := f.light[:0]
	for gi := range f.groups {
		if f.size(gi)*w > n {
			o.ingestGroup(gi, p.Map, w)
		} else {
			light = append(light, int32(gi))
		}
	}
	f.light = light
	if len(light) > 0 {
		p.MapSized(len(light),
			func(i int) int { return f.size(int(light[i])) },
			func(i int) { o.ingestGroup(int(light[i]), nil, 0) })
	}
}

// ingestTile is how many entries of one run fold before the group's next
// run takes its turn. The runs of a group hold (NULLs aside) the same rows,
// so alternating in tiles whose weight windows fit L1 lets every spec after
// the first read them from there. Each run still folds front to back.
const ingestTile = 32

// ingestGroup folds one group's runs, one per spec: tile-interleaved inline,
// or — with pmap — each run whole, its replicate dimension split over the
// pool (a fork-join per tile would cost more than the tile).
func (o *opAgg) ingestGroup(gi int, pmap func(n int, fn func(i int)), parts int) {
	S := len(o.specs)
	runs := o.fs.runs[gi*S : (gi+1)*S]
	for off, more := int32(0), true; more; off += ingestTile {
		more = false
		for si := range runs {
			r, sa := &runs[si], &o.fs.spec[si]
			lo, hi := r.lo+off, r.hi
			if lo >= hi {
				continue
			}
			if pmap == nil && hi-lo > ingestTile {
				hi, more = lo+ingestTile, true
			}
			var ws, reps [][]float64
			if o.trials > 0 {
				ws = sa.ws[lo:hi]
				if o.specs[si].argUncertain {
					reps = sa.reps[lo:hi]
				}
			}
			r.vec.AddBatchRun(sa.vals[lo:hi], sa.mults[lo:hi], ws, reps, pmap, parts)
		}
	}
}

// ---------------------------------------------------------------------------
// The step

func (o *opAgg) step(bc *batchContext) (output, error) {
	in, err := o.child.step(bc)
	if err != nil {
		return output{}, err
	}
	// The fold reads every row's vector: fill the rows held by index.
	o.redraws = bc.weights.fill(bc.run, in.news) + bc.weights.fill(bc.run, in.unc)
	// A grouped aggregate repartitions its input by key.
	if bc.metrics != nil && len(o.node.GroupBy) > 0 {
		n := 0
		for _, r := range in.news {
			n += r.SizeBytes()
		}
		for _, r := range in.unc {
			n += r.SizeBytes()
		}
		bc.metrics.RecordShuffleBytes(n)
	}
	o.epoch++
	o.visits = o.visits[:0]
	// Global aggregates produce their single output row from batch 1
	// regardless of input (SQL semantics: the row always exists).
	if len(o.node.GroupBy) == 0 && len(o.groups) == 0 {
		o.newGroup("", nil).certain = true
	}
	// Fold certain: new certain rows into the sketches.
	o.fold(bc, o.assignCertain(in.news), false)
	// Fold scratch: this batch's contributions of lineage rows (lazy
	// re-evaluation) and pending tuple-uncertain rows.
	o.fold(bc, o.assignScratch(bc, in.unc), true)
	out := o.publish(bc)
	o.fs.release()
	o.record(out)
	return out, nil
}

// publish emits the batch's rows, observes the variation ranges and publishes
// the aggregate's output table for lineage resolution. The table is a view
// over the groups (aggTable): publish computes only the eager set — the
// groups whose emitted row carries a value, and the bound groups, whose
// ranges it observes — and a read computes any other group on demand. A
// value does not depend on when it is computed, so the bits match a table
// computed whole.
//
// The walk visits only the groups given a row this batch and the bound ones,
// in creation order: a group no row reached cannot be emitted, and only a
// bound group observes.
func (o *opAgg) publish(bc *batchContext) output {
	// HDA semantics (Section 4.3): an uncertain aggregate's output rows are
	// materialised values whose update is delete+insert, so every group is
	// re-emitted (tuple-uncertain) each batch and everything downstream
	// recomputes; there are no stable lineage references.
	hdaRecompute := bc.hdaAgg && o.uncOut
	S, B := len(o.specs), o.trials
	// The first lazy chunk holds as many groups as the last table read; the
	// first table, with no count to go by, sizes it for every group, as a
	// table computed whole would be.
	t := &aggTable{groupCols: len(o.node.GroupBy), op: o, epoch: o.epoch, scale: o.est.scale(bc.scale, o.scaleExp),
		chunk: max(1, len(o.order)), grow: lazyChunk}
	if old := o.live; old != nil {
		// Drop the last table's memos, so no group pins its slabs.
		for _, g := range old.done {
			g.pub.Store(nil)
		}
		t.chunk = lazyChunk
		if old.reads > 0 {
			t.chunk = old.reads
		}
	}
	o.live = t
	if hdaRecompute {
		o.visits = o.visits[:0]
		for _, key := range o.order {
			o.visits = append(o.visits, o.groups[key])
		}
	} else {
		for _, g := range o.bound {
			o.visit(g)
		}
		slices.SortFunc(o.visits, func(a, b *aggGroup) int { return a.seq - b.seq })
	}
	// needs says what the batch needs of g: its row (a certain group leaves
	// once, every batch under HDA; an uncertain one while it has pending
	// rows), its values (a row that carries them, or a range to observe).
	needs := func(g *aggGroup) (emit, compute, observed bool) {
		pending := g.pendEpoch == o.epoch
		emit = (g.certain && (hdaRecompute || !g.emitted)) || (pending && (hdaRecompute || !g.certain))
		observed = o.est.track && bc.prune && o.est.binding(g.support)
		return emit, observed || emit && (hdaRecompute || o.valueOut), observed
	}
	for _, g := range o.visits {
		if _, compute, _ := needs(g); compute {
			t.eager++
		}
	}
	t.slab = newPubSlab(t.eager, S, B)
	t.done = make([]*aggGroup, 0, t.eager+t.chunk)
	var out output
	for _, g := range o.visits {
		emit, compute, observed := needs(g)
		var pub *aggPub
		if compute {
			var obs *batchContext
			if observed {
				obs = bc
			}
			var reps []float64
			pub, reps = t.slab.carve(S, B)
			o.materialize(t, g, pub, reps, obs)
			g.pub.Store(pub)
			t.done = append(t.done, g)
		}
		if !emit {
			continue
		}
		rowVals := make([]rel.Value, 0, len(g.key)+S)
		rowVals = append(rowVals, g.key...)
		for si := range o.specs {
			sp := &o.specs[si]
			if sp.uncertainOut && !hdaRecompute {
				rowVals = append(rowVals, rel.NewRef(rel.Ref{Op: o.pubID, Key: g.name, Col: sp.outCol}))
			} else {
				rowVals = append(rowVals, pub.vals[si].Value)
			}
		}
		// Delete+insert value updates under HDA: every live group flows as a
		// tuple-uncertain row, every batch.
		row := delta.Row{Vals: rowVals, Mult: 1}
		if g.certain && !hdaRecompute {
			g.emitted = true
			out.news = append(out.news, row)
		} else {
			out.unc = append(out.unc, row)
		}
	}
	bc.publish(o.pubID, t)
	// The published table is broadcast to workers for lazy evaluation
	// (Section 6.2's broadcast join) — replication traffic, not a
	// repartition, so it books as broadcast bytes. The model ships every
	// group, computed or not.
	if bc.metrics != nil {
		bc.metrics.RecordBroadcastBytes(len(o.order) * (48 + S*(16+8*B)))
	}
	return out
}

// materialize computes g's published values for t into pub, whose values
// and replicates (reps) are carved from t's slab: per spec, the sketch merged
// with this batch's scratch, its Result and RepResults at t's scale, and its
// range. Only publish passes bc, and with it the group observes its
// variation ranges (Section 5.1); a read never observes, so its ranges are
// the unbound ones: Full, or Point for a certain column.
func (o *opAgg) materialize(t *aggTable, g *aggGroup, pub *aggPub, reps []float64, bc *batchContext) {
	B := o.trials
	pub.t = t
	var merge *[]*agg.Vector
	for si := range o.specs {
		sp := &o.specs[si]
		vec := g.sketch[si]
		if g.scratchEpoch == o.epoch && g.scratch[si] != nil {
			// Read through a pooled merge buffer: reset + two merges cost no
			// allocation (vs cloning the sketch).
			if merge == nil {
				if merge, _ = o.merges.Get().(*[]*agg.Vector); merge == nil {
					m := make([]*agg.Vector, len(o.specs))
					merge = &m
				}
			}
			buf := (*merge)[si]
			if buf == nil {
				buf = agg.NewVector(sp.fn, o.trials)
				(*merge)[si] = buf
			}
			buf.Reset()
			buf.Merge(vec)
			buf.Merge(g.scratch[si])
			vec = buf
		}
		val := vec.Result(t.scale)
		var rs []float64
		if B > 0 {
			rs = vec.RepResults(t.scale, reps[si*B:(si+1)*B:(si+1)*B])
		}
		rng := bootstrap.Full()
		if bc != nil && g.ranges[si] != nil {
			rng = o.est.observe(bc, o.pubID, g.ranges[si], val, rs)
		} else if !sp.uncertainOut {
			rng = bootstrap.Point(val)
		}
		pub.vals[si] = expr.UncValue{Value: rel.Float(val), Reps: rs, Range: rng}
	}
	if merge != nil {
		o.merges.Put(merge)
	}
}

// aggPub is one group's published uncertain outputs (indexed by aggregate
// spec position), computed for table t.
type aggPub struct {
	vals []expr.UncValue
	t    *aggTable
}

// aggTable is an aggregate's published output for lineage resolution: the
// "broadcast-joined" relation of Section 6.2.
//
// A live table is a view over its operator's groups, valid for the step that
// published it. publish computes the eager set; any other group is computed
// on its first read and memoised on the group (aggGroup.pub, tagged with the
// table), so a hit is one atomic load. A miss takes the lock only to carve
// its slot; the computation runs outside it, so parallel readers compute
// different groups at once. A miss after the operator has stepped again
// panics: the groups have moved on. A frozen table (freeze) holds every
// group in byKey and never reads the operator again, so it stays valid after
// the step.
type aggTable struct {
	groupCols int
	byKey     map[string]*aggPub // frozen tables only

	op    *opAgg  // nil once frozen
	epoch int     // op.epoch at publish
	scale float64 // m_i^scaleExp

	mu sync.Mutex // guards the slab, done and reads
	// slab is what the next materialisation carves from: the eager set's,
	// then lazy chunks: chunk groups (publish sizes it), then lazyChunk,
	// then twice as many each time.
	slab        pubSlab
	chunk, grow int
	// done lists the groups whose memo names this table.
	done []*aggGroup
	// eager and reads count the groups materialised by publish and by reads
	// (two readers racing to one group both count).
	eager, reads int
}

// lookup returns the published values of the group under key, nil when the
// aggregate has no such group.
func (t *aggTable) lookup(key string) *aggPub {
	if t.op == nil {
		return t.byKey[key]
	}
	g, ok := t.op.groups[key]
	if !ok {
		return nil
	}
	if p := g.pub.Load(); p != nil && p.t == t {
		return p
	}
	return t.read(g)
}

// read materialises g on the step's first read of it.
func (t *aggTable) read(g *aggGroup) *aggPub {
	o := t.op
	t.mu.Lock()
	old := g.pub.Load()
	if old != nil && old.t == t {
		t.mu.Unlock()
		return old
	}
	if o.epoch != t.epoch {
		t.mu.Unlock()
		panic(fmt.Sprintf("core: aggregate #%d: a live table of step %d read at step %d (freeze a table that outlives its step)",
			o.pubID, t.epoch, o.epoch))
	}
	if len(t.slab.pubs) == 0 {
		t.slab = newPubSlab(t.chunk, len(o.specs), o.trials)
		t.chunk, t.grow = t.grow, 2*t.grow
	}
	p, reps := t.slab.carve(len(o.specs), o.trials)
	t.reads++
	t.done = append(t.done, g)
	t.mu.Unlock()
	o.materialize(t, g, p, reps, nil)
	if g.pub.CompareAndSwap(old, p) {
		return p
	}
	// A reader racing to the same group stored first; its values are these,
	// bit for bit.
	return g.pub.Load()
}

// freeze materialises every group into byKey and detaches the table from its
// operator, so it stays valid after the operator steps again. It is what a
// table that outlives its step costs: one computation per group.
func (t *aggTable) freeze() {
	o := t.op
	t.byKey = make(map[string]*aggPub, len(o.order))
	var rest []*aggGroup
	for _, key := range o.order {
		g := o.groups[key]
		if p := g.pub.Load(); p != nil && p.t == t {
			t.byKey[key] = p
		} else {
			rest = append(rest, g)
		}
	}
	t.slab = newPubSlab(len(rest), len(o.specs), o.trials)
	for _, g := range rest {
		p, reps := t.slab.carve(len(o.specs), o.trials)
		o.materialize(t, g, p, reps, nil)
		t.byKey[g.name] = p
	}
	t.op = nil
}

// lazyChunk is the size of a table's first lazy chunk when the last table
// read nothing, and of the first chunk past publish's estimate.
const lazyChunk = 16

// pubSlab is the backing storage pubs are carved from: one allocation each
// for the pubs, their values and their replicates.
type pubSlab struct {
	pubs []aggPub
	vals []expr.UncValue
	reps []float64
}

func newPubSlab(n, S, B int) pubSlab {
	return pubSlab{pubs: make([]aggPub, n), vals: make([]expr.UncValue, n*S), reps: make([]float64, n*S*B)}
}

// carve takes one pub with its S values, and the S·B replicates they
// hold, off the slab.
func (s *pubSlab) carve(S, B int) (*aggPub, []float64) {
	p := &s.pubs[0]
	p.vals = s.vals[:S:S]
	reps := s.reps[: S*B : S*B]
	s.pubs, s.vals, s.reps = s.pubs[1:], s.vals[S:], s.reps[S*B:]
	return p, reps
}

// aggGroupSnap is one group's state in compact snapshot form: vector
// sketches are stored as bank slabs (agg.VectorSnap), not cloned Vectors, and
// restore copies them into the live group's banks in place. The key and the
// lineage rows are shared: the key never changes, and the lineage set only
// grows, so a capacity-clamped header of it is a copy.
type aggGroupSnap struct {
	key     []rel.Value
	sketch  []agg.VectorSnap
	lazy    []delta.Row
	ranges  []*bootstrap.Range
	support int
	certain bool
	emitted bool
}

// aggSnap is a copy of every group, in group order (DESIGN.md §6). A
// snapshot is never written, so any one may be restored, any number of times.
type aggSnap struct {
	order  []string // capacity-clamped: the live order only ever appends to it
	groups []aggGroupSnap
}

// snapshot copies every group into storage carved once per snapshot: one
// slice each of groups, vector snapshots and ranges, and one slab for every
// sketch bank.
func (o *opAgg) snapshot() interface{} {
	n, S := len(o.order), len(o.specs)
	s := &aggSnap{order: o.order[:n:n], groups: make([]aggGroupSnap, n)}
	floats := 0
	for _, k := range s.order {
		for _, v := range o.groups[k].sketch {
			floats += v.SnapFloats()
		}
	}
	sketches, ranges, slab := make([]agg.VectorSnap, n*S), make([]*bootstrap.Range, n*S), make([]float64, floats)
	for i, k := range s.order {
		g := o.groups[k]
		gs := &s.groups[i]
		*gs = aggGroupSnap{
			key:     g.key,
			sketch:  sketches[i*S : (i+1)*S : (i+1)*S],
			lazy:    g.lazy.Rows[:len(g.lazy.Rows):len(g.lazy.Rows)],
			ranges:  ranges[i*S : (i+1)*S : (i+1)*S],
			support: g.support,
			certain: g.certain,
			emitted: g.emitted,
		}
		for si, v := range g.sketch {
			slab = v.SnapshotCarve(&gs.sketch[si], slab)
		}
		for si, r := range g.ranges {
			gs.ranges[si] = r.Snapshot()
		}
	}
	return s
}

// restore rebuilds the state of any snapshot: the engine's newest or an older
// one, or a shared entry's snapshot of another path.
func (o *opAgg) restore(snap interface{}) {
	s := snap.(*aggSnap)
	old := o.groups
	o.groups = make(map[string]*aggGroup, len(s.order))
	o.order = s.order
	o.bound = o.bound[:0]
	for i, k := range s.order {
		g := restoreGroup(old[k], k, &s.groups[i])
		g.seq = i
		o.groups[k] = g
		if o.binds && o.est.binding(g.support) {
			o.bound = append(o.bound, g)
		}
	}
}

// restoreGroup writes gs into ng, the live group under the same key, reusing
// its sketch banks (a slab copy each); ng nil or misshapen is replaced.
func restoreGroup(ng *aggGroup, k string, gs *aggGroupSnap) *aggGroup {
	if ng == nil || len(ng.sketch) != len(gs.sketch) {
		ng = &aggGroup{sketch: make([]*agg.Vector, len(gs.sketch))}
	}
	ng.name, ng.key = k, gs.key
	ng.support, ng.certain, ng.emitted = gs.support, gs.certain, gs.emitted
	for i := range gs.sketch {
		vs := &gs.sketch[i]
		if ng.sketch[i] == nil || !vs.RestoreInto(ng.sketch[i]) {
			ng.sketch[i] = vs.Materialize()
		}
	}
	if len(ng.ranges) != len(gs.ranges) {
		ng.ranges = make([]*bootstrap.Range, len(gs.ranges))
	}
	for i, r := range gs.ranges {
		ng.ranges[i] = r.Snapshot()
	}
	// Clamped, so the next lineage row reallocates instead of writing
	// into an array snapshots share.
	ng.lazy.Rows = gs.lazy
	return ng
}

func (o *opAgg) stateBytes() int {
	// Sketch footprints are constant per spec (precomputed at construction
	// so this never allocates probe vectors).
	n := o.groupBytes * len(o.groups)
	if o.lazySpecs > 0 {
		for _, g := range o.groups {
			n += g.lazy.SizeBytes()
		}
	}
	return n
}

func (o *opAgg) kind() string { return "aggregate" }
