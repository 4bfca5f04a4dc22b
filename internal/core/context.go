// Package core implements the iOLAP engine: the online query rewriter, the
// online operator implementations, and the query controller of Section 7,
// built on the uncertainty propagation theory of Section 4, the
// tuple-uncertainty partitioning of Section 5, and the lineage-based lazy
// evaluation of Section 6.
//
// Three engine modes share the operator framework:
//
//   - ModeIOLAP — the full system (variation-range pruning + lazy lineage).
//   - ModeOPT1 — pruning only; state rows are regenerated through a
//     rebuilt broadcast-join each batch instead of lazily dereferenced
//     (the middle bar of Figure 9(a)).
//   - ModeHDA — the DBToaster-style higher-order delta baseline: flat
//     sub-aggregates are delta-maintained, but every tuple whose predicate
//     depends on an uncertain aggregate is re-evaluated every batch, with
//     no variation ranges and no pruning (Section 8's HDA).
package core

import (
	"fmt"

	"iolap/internal/cluster"
	"iolap/internal/expr"
	"iolap/internal/rel"
	"iolap/internal/share"
	"iolap/internal/storage"
)

// Mode selects the delta update algorithm.
type Mode int

// Engine modes.
const (
	// ModeIOLAP is the full system: OPT1 (tuple-uncertainty partitioning
	// via variation ranges) + OPT2 (lineage propagation + lazy evaluation).
	ModeIOLAP Mode = iota
	// ModeOPT1 disables lazy lineage: state rows are regenerated through
	// a per-batch broadcast join against the aggregate outputs.
	ModeOPT1
	// ModeHDA is the higher-order delta baseline (DBToaster-style): no
	// uncertainty partitioning, no lineage; everything downstream of an
	// uncertain aggregate is recomputed over all previously seen data.
	ModeHDA
)

func (m Mode) String() string {
	switch m {
	case ModeIOLAP:
		return "iOLAP"
	case ModeOPT1:
		return "OPT1"
	case ModeHDA:
		return "HDA"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// Options configures an Engine.
type Options struct {
	// Mode selects the delta algorithm (default ModeIOLAP); NewEngine
	// rejects any other value than the three declared modes.
	Mode Mode
	// Batches is the number of mini-batches p the streamed table is
	// partitioned into (default 10).
	Batches int
	// Trials is the bootstrap replicate count B (default 100; the paper
	// uses 100 trials). Negative disables bootstrap entirely (no error
	// estimates, no variation ranges); NewEngine rejects more than 10,000.
	Trials int
	// Slack is the variation-range slack parameter ε (default 2.0, the
	// paper's recommended setting); NewEngine rejects a NaN, infinite or
	// negative slack.
	Slack float64
	// Seed drives every random choice (Poisson streams, shuffles).
	Seed uint64
	// Workers bounds partition parallelism (default GOMAXPROCS); NewEngine
	// rejects more than 65,536.
	Workers int
	// PreShuffle randomly permutes the streamed table before batching
	// (the Section 2 pre-processing tool); off by default because the
	// workload generators already emit shuffled data.
	PreShuffle bool
	// BlockRows, when positive, enables the paper's default block-wise
	// randomness (Section 2): the streamed table is cut into blocks of
	// this many rows, whole blocks are randomly assigned to mini-batches
	// (seeded), and rows within a block stay together — the behaviour of
	// reading randomly partitioned HDFS blocks.
	BlockRows int
	// StratifyBy names a column of the streamed table for proportional
	// stratified batching: every mini-batch receives the same fraction of
	// each stratum, so rare groups are represented from batch 1 while the
	// uniform scale factor m_i stays exact. This implements the
	// stratified-sampling extension the paper leaves as future work
	// (Section 9).
	StratifyBy string
	// StateBudgetBytes bounds the resident (in-memory) join-state bytes.
	// When the cached join sides exceed it after a batch, the engine's
	// SpillPolicy evicts cold HashStore shards to per-shard spill files and
	// probes read them back transparently. 0 (the default) disables
	// spilling entirely; negative means a zero-byte budget — every
	// enforcement pushes all join state to disk. Like Workers and the
	// parallel cutover (Engine.SetCutover), the budget affects placement
	// only, never results: the execution lattice asserts bit-identical
	// output at every budget.
	StateBudgetBytes int64
	// SpillFS overrides where spill files live (fault-injection tests use
	// storage.MemFS / storage.FaultFS). Nil selects the real filesystem
	// under SpillDir, or a private temp directory — removed by Close — when
	// SpillDir is empty too.
	SpillFS storage.FS
	// SpillDir is the directory for spill files when SpillFS is nil.
	SpillDir string
	// Deltas, when non-empty, supplies the mini-batch schedule directly
	// instead of having the engine partition the streamed table itself:
	// element i is batch i+1's delta relation. This is the shared-scan seam
	// of the serving layer (internal/serve): the server partitions each
	// streamed table exactly once and hands every session's engine the same
	// slices, so N concurrent delta pipelines read one shared copy of the
	// data. Every element must carry the streamed table's schema; the
	// schedule overrides Batches, PreShuffle, BlockRows and StratifyBy. A
	// solo engine given the same schedule produces a bit-identical
	// trajectory — sharing changes memory layout, never results.
	Deltas []*rel.Relation
	// SharedState, when non-nil, lets compilation satisfy eligible operator
	// state (frozen join build sides, inner aggregate subtrees) from an
	// externally owned refcounted cache instead of building private copies
	// (shared.go). Every state acquired during compilation is released by
	// Engine.Close. Sharing requires a caller-supplied schedule (Deltas) for
	// aggregate entries and is inert for solo engines. Results stay
	// bit-identical to a private build; only memory ownership changes.
	SharedState *share.Cache
	// NoVectorize turns off the columnar filter (DESIGN.md §14): a
	// deterministic SELECT directly above a streamed scan then evaluates its
	// predicate row by row instead of over column banks built from the
	// scan's batch. Every other operator reads rows either way. Both
	// filters give the same verdicts — the execution lattice runs both and
	// asserts bit-identical updates — so this is an execution-layout switch
	// and a debugging oracle, never a semantic one.
	NoVectorize bool
}

func (o Options) withDefaults() Options {
	if o.Batches <= 0 {
		o.Batches = 10
	}
	if o.Trials == 0 {
		o.Trials = 100
	}
	if o.Trials < 0 {
		o.Trials = 0 // explicit opt-out of bootstrap
	}
	if o.Slack == 0 {
		o.Slack = 2.0
	}
	return o
}

// batchContext carries one mini-batch's execution state. It implements
// expr.Resolver: resolving a rel.Ref against the producing aggregate's
// current output *is* the lazy evaluation of Section 6.2.
type batchContext struct {
	batch  int     // 1-based engine batch number
	scale  float64 // m_i = |D| / |D_i|
	trials int

	// delta holds this batch's new rows per streamed table name.
	delta map[string]*rel.Relation
	// dims holds the static tables (consumed at batch 1).
	dims dbView

	tables map[int]*aggTable // published aggregate outputs, by op id

	lazy  bool // OPT2: lazy lineage via refs
	prune bool // OPT1: variation-range pruning
	// exact marks the final batch (D_i = D): the delivered result is the
	// exact answer, so error estimates collapse to points.
	exact bool
	// hdaAgg makes aggregates with uncertain outputs re-emit ALL their
	// group rows (materialised values) every batch instead of emitting
	// stable lineage references once. This is the classical IVM treatment
	// of a value update as delete+insert (Section 4.3), and is what makes
	// the HDA baseline recompute everything downstream of an inner
	// aggregate on every batch.
	hdaAgg bool

	metrics    *cluster.Metrics
	recomputed int // tuples recomputed this batch (Fig 8(e,f))
	failures   []failure
	// observed counts the step's Range.Observe calls: a step that makes none
	// labels no range with its batch, so no integrity failure can name the
	// batch as the one to restore (Engine.recoverySnapshot).
	observed int
	// run schedules every row-parallel site of the batch. It is the
	// engine's: its cost model keeps learning across the run. The zero
	// Runner of a bare context runs every site inline.
	run cluster.Runner
	// vec enables the columnar filter (off under Options.NoVectorize): a
	// select with a compiled predicate over a streamed scan builds its
	// predicate's column banks from the scan's batch and filters over them.
	vec bool
	// weights fills the vectors of the rows the step's readers hold by
	// index (weigher.fill); nil with the bootstrap off, and for a static
	// subtree's step.
	weights *weigher
}

// newBatchContext builds the context of one step: the step is labelled batch,
// consumes delta, and leaves seen of the streamed table's total rows
// processed. It is the one place Options.Mode decodes into the lazy / prune /
// hdaAgg switches. What only a full engine has — metrics, site runner, the
// columnar filter — the engine attaches afterwards; a context without them
// runs every operator inline on the row paths. The owner of the operators
// attaches their weigher (weigher.begin).
func newBatchContext(opts Options, batch, seen, total int, delta map[string]*rel.Relation, dims dbView) *batchContext {
	scale := 1.0
	if seen > 0 {
		scale = float64(total) / float64(seen)
	}
	return &batchContext{
		batch:  batch,
		scale:  scale,
		exact:  seen >= total,
		trials: opts.Trials,
		delta:  delta,
		dims:   dims,
		tables: make(map[int]*aggTable),
		lazy:   opts.Mode == ModeIOLAP,
		prune:  opts.Mode != ModeHDA,
		hdaAgg: opts.Mode == ModeHDA,
	}
}

// failure records one variation-range integrity violation (Section 5.1).
type failure struct {
	op        int
	recoverTo int // batch label to restore; -1 = from scratch
}

// dbView abstracts table access for static scans.
type dbView interface {
	Get(name string) (*rel.Relation, bool)
}

// ResolveRef implements expr.Resolver.
func (bc *batchContext) ResolveRef(r rel.Ref) (expr.UncValue, bool) {
	t, ok := bc.tables[r.Op]
	if !ok {
		return expr.UncValue{}, false
	}
	g := t.lookup(r.Key)
	if g == nil {
		return expr.UncValue{}, false
	}
	idx := r.Col - t.groupCols
	if idx < 0 || idx >= len(g.vals) {
		return expr.UncValue{}, false
	}
	return g.vals[idx], true
}

// publish registers an aggregate's output table for the batch.
func (bc *batchContext) publish(op int, t *aggTable) { bc.tables[op] = t }

var _ expr.Resolver = (*batchContext)(nil)
