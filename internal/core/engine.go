package core

import (
	"fmt"
	"os"
	"time"

	"iolap/internal/bootstrap"
	"iolap/internal/cluster"
	"iolap/internal/delta"
	"iolap/internal/exec"
	"iolap/internal/expr"
	"iolap/internal/plan"
	"iolap/internal/rel"
	"iolap/internal/storage"
)

// snapshotKeep is how many recent per-batch state snapshots the controller
// retains for failure recovery. Failures reaching further back recover from
// scratch.
const snapshotKeep = 8

// Update is the refined partial result delivered after one mini-batch.
type Update struct {
	// Batch is the 1-based mini-batch number; Batches is the total p.
	Batch, Batches int
	// Fraction is |D_i| / |D| of the streamed table.
	Fraction float64
	// Result is the partial query result Q(D_i, m_i).
	Result *rel.Relation
	// Estimates holds, aligned with Result rows/columns, the bootstrap
	// error estimates of numeric outputs (zero-valued for exact columns).
	Estimates [][]bootstrap.Estimate
	// Duration is the wall-clock time of the batch (including recovery).
	Duration time.Duration
	// Recomputed counts the tuples re-evaluated this batch (the Fig 8(e,f)
	// metric): state refreshes plus pending re-aggregations.
	Recomputed int
	// NDSetRows is the total size of the non-deterministic sets held in
	// SELECT states after the batch.
	NDSetRows int
	// JoinStateBytes / OtherStateBytes split operator state memory as in
	// Figure 9(b). Both count this session's PRIVATE state only.
	JoinStateBytes, OtherStateBytes int
	// SharedStateBytes is the footprint of externally owned shared state
	// (Options.SharedState) this session references: frozen join build
	// stores, and each shared aggregate entry's operator state as of this
	// session's batch. Every holding session reports the same figure at the
	// same batch, but the bytes exist once per cache entry — the serving
	// layer dedupes them via its cache stats.
	SharedStateBytes int
	// ShuffleBytes is the repartition traffic this batch: bytes a hash
	// shuffle would ship between workers.
	ShuffleBytes int64
	// BroadcastBytes is the replication traffic this batch: bytes shipped
	// once to every worker (published aggregate tables, scalar join sides).
	// ShuffleBytes + BroadcastBytes is the "data shipped at query time"
	// metric of Fig 9(c).
	BroadcastBytes int64
	// JoinStateResidentBytes is the in-memory share of JoinStateBytes: the
	// two differ exactly by the rows the StateBudgetBytes policy has
	// evicted to spill files.
	JoinStateResidentBytes int
	// SpillBytesWritten / SpillBytesRead are this batch's spill-file
	// traffic: bytes evicted to disk under the state budget and bytes read
	// back by probes. Local disk I/O, so not part of the data-shipped
	// metric.
	SpillBytesWritten, SpillBytesRead int64
	// Recoveries counts failure-recovery events triggered this batch
	// (variation-range integrity violations, Section 5.1, and failed spill
	// enforcement).
	Recoveries int
	// RecoveredFrom is the batch label whose snapshot the last recovery of
	// this step restored before replaying the merged delta (0 = pristine
	// state, i.e. recovery from scratch); -1 when no recovery happened.
	RecoveredFrom int
}

// MaxRelStdev returns the worst relative standard deviation across all
// uncertain numeric cells — the accuracy axis of Figure 7(a).
func (u *Update) MaxRelStdev() float64 { return bootstrap.MaxRelStdev(u.Estimates) }

// Engine is the iOLAP query controller (Section 7): it partitions the
// streamed input into mini-batches, schedules the delta query on each batch,
// collects partial results, monitors variation-range integrity and runs
// failure recovery.
type Engine struct {
	opts Options
	comp *compiled
	db   *exec.DB

	streamedTable string
	deltas        []*rel.Relation
	totalRows     int
	seenRows      int
	batch         int

	snaps     []engineSnap
	base      engineSnap
	keepSnaps int // len(snaps) bound: snapshotKeep, lowered by tests
	observed  int // Range.Observe calls of the last batch's final attempt (recoverySnapshot)
	metrics   cluster.Metrics
	// run schedules the row-parallel sites of every batch; it lives on the
	// engine (not the batch context, not the package) so its cost model keeps
	// learning across batches and concurrent engines cannot race.
	run cluster.Runner

	// spill is the join-state budget (nil when StateBudgetBytes is 0);
	// spillDirOwned is a temp directory the engine created for spill files
	// and removes on Close.
	spill         *delta.SpillPolicy
	spillDirOwned string

	// committed* accumulate exchange and spill traffic of successful
	// attempts only: each batch's figures are measured per attempt and
	// folded in once the attempt commits, so §5.1 replays never double-count
	// (the totals always equal the sum of the per-batch Update figures).
	committedShuffle, committedBroadcast      int64
	committedSpillWritten, committedSpillRead int64

	totalRecoveries int
}

type engineSnap struct {
	afterBatch int           // state is "after batch N" (0 = pristine)
	ops        []interface{} // nil: no recovery can restore this batch
	seenRows   int
}

// NewEngine compiles the plan and partitions the streamed table. The plan
// must be finalized (plan.Finalize) and reference exactly one streamed
// table (the paper streams the fact/largest table; dimension tables are
// read in full).
func NewEngine(root plan.Node, db *exec.DB, opts Options) (*Engine, error) {
	opts = opts.withDefaults()
	if opts.Workers > maxWorkers {
		return nil, fmt.Errorf("core: %d workers, more than %d", opts.Workers, maxWorkers)
	}
	// The engine shell exists before compilation because the spill policy
	// the join stores register with points at the engine's metrics.
	e := &Engine{opts: opts, db: db, keepSnaps: snapshotKeep}
	if err := e.initSpill(); err != nil {
		return nil, err
	}
	comp, err := compile(root, db, opts, e.spill)
	if err != nil {
		e.Close()
		return nil, err
	}
	// comp is attached before the remaining validation so every error path's
	// e.Close() releases any shared state the compilation acquired.
	e.comp = comp
	table := comp.table
	src, ok := db.Get(table)
	if !ok {
		e.Close()
		return nil, fmt.Errorf("core: streamed table %q not in database", table)
	}
	totalRows := src.Len()
	var deltas []*rel.Relation
	if len(opts.Deltas) > 0 {
		// Caller-supplied schedule (the serving layer's shared scan): the
		// engine consumes the given slices verbatim and sizes itself by
		// them, so every session sharing the schedule sees the same |D|.
		deltas = opts.Deltas
		totalRows = 0
		for i, d := range deltas {
			if len(d.Schema) != len(src.Schema) {
				e.Close()
				return nil, fmt.Errorf("core: supplied delta %d schema width %d != streamed table %q width %d",
					i, len(d.Schema), table, len(src.Schema))
			}
			totalRows += d.Len()
		}
	} else {
		if opts.PreShuffle {
			src = cluster.Shuffle(src, opts.Seed)
		}
		if opts.BlockRows > 0 {
			// Block-wise randomness: permute whole blocks, keep rows within a
			// block together (Section 2's default).
			table := &storage.Table{Rel: src}
			for lo := 0; lo < src.Len(); lo += opts.BlockRows {
				table.BlockStarts = append(table.BlockStarts, lo)
			}
			src = table.ShuffleBlocks(opts.Seed ^ 0xb10c)
		}
		if opts.StratifyBy != "" {
			idx, err := src.Schema.Resolve("", opts.StratifyBy)
			if err != nil {
				e.Close()
				return nil, fmt.Errorf("core: stratify column: %w", err)
			}
			p := clampBatches(opts.Batches, src.Len())
			deltas = stratifyBatches(src, idx, p)
		} else {
			deltas = ContiguousDeltas(src, opts.Batches)
		}
	}
	e.streamedTable = table
	e.deltas = deltas
	e.totalRows = totalRows
	e.run = cluster.NewRunner(opts.Workers, 0)
	e.base = e.takeSnapshot(0)
	return e, nil
}

// initSpill sets up the join-state budget from the options. A zero budget
// means spilling is disabled (no policy, no files, no temp dir).
func (e *Engine) initSpill() error {
	b := e.opts.StateBudgetBytes
	if b == 0 {
		return nil
	}
	fs := e.opts.SpillFS
	if fs == nil {
		dir := e.opts.SpillDir
		if dir == "" {
			d, err := os.MkdirTemp("", "iolap-spill-")
			if err != nil {
				return fmt.Errorf("core: spill dir: %w", err)
			}
			dir = d
			e.spillDirOwned = d
		}
		fs = storage.OSFS{Dir: dir}
	}
	e.spill = delta.NewSpillPolicy(b, fs, &e.metrics)
	return nil
}

// Close releases the engine's spill files (and the temp directory it created
// for them, if any). The engine remains usable for the join state still in
// memory, but any spilled rows are gone — call Close only when done
// stepping. Safe to call on an engine that never spilled, and idempotent.
func (e *Engine) Close() error {
	if e.comp != nil {
		// Drop this session's refs on shared state; the cache evicts an
		// entry when its last holder releases.
		e.comp.releaseShared()
	}
	err := e.spill.Close()
	e.spill = nil
	if e.spillDirOwned != "" {
		if rmErr := os.RemoveAll(e.spillDirOwned); rmErr != nil && err == nil {
			err = rmErr
		}
		e.spillDirOwned = ""
	}
	return err
}

// Done reports whether all batches have been processed.
func (e *Engine) Done() bool { return e.batch >= len(e.deltas) }

// PlanString renders the normalized online plan with its Section 4.1
// uncertainty annotations (the paper's Figure 3 as a diagnostic).
func (e *Engine) PlanString() string {
	return plan.FormatAnnotated(e.comp.norm, e.comp.analysis)
}

// TotalRecoveries returns the failure-recovery count so far.
func (e *Engine) TotalRecoveries() int { return e.totalRecoveries }

func (e *Engine) takeSnapshot(afterBatch int) engineSnap {
	s := engineSnap{afterBatch: afterBatch, ops: make([]interface{}, len(e.comp.ops)), seenRows: e.seenRows}
	for i, op := range e.comp.ops {
		s.ops[i] = op.snapshot()
	}
	return s
}

// recoverySnapshot is the snapshot list's entry for the state after batch
// e.batch. It holds operator state only if a recovery can restore it:
//   - an integrity failure restores the batch that labelled an earlier
//     observation (bootstrap.Range.Observe): one that observed a range;
//   - a failed Enforce restores the previous batch, observed or not: under a
//     state budget, every batch.
//
// Batch 0 is e.base. Any other entry holds no state but stays in the list,
// so keepSnaps evicts by the batch count.
func (e *Engine) recoverySnapshot() engineSnap {
	if e.batch > 0 && (e.observed > 0 || e.opts.StateBudgetBytes != 0) {
		return e.takeSnapshot(e.batch)
	}
	return engineSnap{afterBatch: e.batch, seenRows: e.seenRows}
}

func (e *Engine) restoreSnapshot(s engineSnap) {
	if s.ops == nil {
		panic(fmt.Sprintf("core: restore of the snapshot after batch %d, which holds no state", s.afterBatch))
	}
	for i, op := range e.comp.ops {
		op.restore(s.ops[i])
	}
	e.seenRows = s.seenRows
}

// newBatchContext builds the context of a step over deltaRows, which leaves
// seenAfter streamed rows processed; replay marks a merged delta (§5.1).
func (e *Engine) newBatchContext(deltaRows *rel.Relation, seenAfter int, replay bool) *batchContext {
	bc := newBatchContext(e.opts, e.batch, seenAfter, e.totalRows,
		map[string]*rel.Relation{e.streamedTable: deltaRows}, e.db)
	bc.metrics = &e.metrics
	bc.run = e.run
	bc.vec = !e.opts.NoVectorize
	bc.weights = e.comp.weights.begin(uint64(seenAfter-deltaRows.Len()), deltaRows.Len(), replay)
	return bc
}

// mergeDeltas concatenates the deltas of batches (from, to] (1-based).
func (e *Engine) mergeDeltas(from, to int) *rel.Relation {
	out := rel.NewRelation(e.deltas[0].Schema)
	for b := from + 1; b <= to; b++ {
		out.Tuples = append(out.Tuples, e.deltas[b-1].Tuples...)
	}
	return out
}

// Step processes the next mini-batch and returns the refined partial
// result. It implements the controller loop of Section 7 including failure
// recovery: on a variation-range integrity violation the state is restored
// to the last consistent batch and the skipped batches are reprocessed as
// one merged delta (Section 5.1).
func (e *Engine) Step() (u *Update, err error) {
	if e.Done() {
		return nil, fmt.Errorf("core: all %d batches processed", len(e.deltas))
	}
	// A failing user function surfaces from deep inside an operator as an
	// expr.UDFPanic (operator signatures stay error-free); convert it into
	// the batch error here. Anything else keeps panicking.
	defer func() {
		if r := recover(); r != nil {
			p, ok := r.(expr.UDFPanic)
			if !ok {
				panic(r)
			}
			u, err = nil, p
		}
	}()
	start := time.Now()
	// Exchange and spill baselines are re-read at the start of every
	// attempt, so the per-batch Update figures — and through them the
	// committed totals — cover the successful attempt only. Measuring from
	// the start of the step would count a failed attempt's traffic once in
	// this batch and again when the replay re-ships it.
	var shuffleBefore, broadcastBefore, spillWrittenBefore, spillReadBefore int64
	markAttempt := func() {
		shuffleBefore = e.metrics.ShuffleBytes()
		broadcastBefore = e.metrics.BroadcastBytes()
		spillWrittenBefore = e.metrics.SpillBytesWritten()
		spillReadBefore = e.metrics.SpillBytesRead()
	}
	// Snapshot the pre-batch state for recovery. Queries that track no
	// variation ranges can never fail an integrity check, so they skip
	// the snapshot cost entirely.
	if e.comp.est.track {
		e.snaps = append(e.snaps, e.recoverySnapshot())
		if len(e.snaps) > e.keepSnaps {
			e.snaps = e.snaps[len(e.snaps)-e.keepSnaps:]
		}
	}
	e.batch++
	// Inserts from here on are stamped with this batch's epoch — the
	// coldness key of the spill policy's eviction order. Written before any
	// pool work starts, so workers only ever read it.
	e.spill.Advance(e.batch)
	d := e.deltas[e.batch-1]
	e.seenRows += d.Len()
	bc := e.newBatchContext(d, e.seenRows, false)
	markAttempt()
	if _, err := e.comp.sink.step(bc); err != nil {
		return nil, err
	}
	recoveries := 0
	recoveredFrom := -1
	for attempt := 0; ; attempt++ {
		if len(bc.failures) == 0 {
			// The batch is consistent; now hold the resident-state budget.
			// A failed spill leaves its shard's memory authoritative, so
			// state is still correct — but the budget is not met, and the
			// write may have left dead bytes. Treat it exactly like an
			// integrity failure: restore a snapshot, replay the merged
			// delta, enforce again (transient faults heal; persistent
			// faults hit the attempt cap below).
			if err := e.spill.Enforce(); err == nil {
				break
			}
		}
		if attempt >= 4 {
			return nil, fmt.Errorf("core: failure recovery did not converge at batch %d", e.batch)
		}
		recoveries++
		e.totalRecoveries++
		// Pick the earliest consistent batch over all failures (spill
		// enforcement failures have no failure record and recover to the
		// previous batch).
		j := e.batch - 1
		for _, f := range bc.failures {
			if f.recoverTo < j {
				j = f.recoverTo
			}
		}
		if j < 0 || attempt >= 2 {
			j = 0 // recover from scratch
		}
		restored := false
		if j == 0 {
			e.restoreSnapshot(e.base)
			restored = true
		} else {
			for i := len(e.snaps) - 1; i >= 0; i-- {
				if e.snaps[i].afterBatch == j {
					e.restoreSnapshot(e.snaps[i])
					restored = true
					break
				}
			}
		}
		if !restored {
			// Snapshot evicted: recover from scratch.
			j = 0
			e.restoreSnapshot(e.base)
		}
		// Snapshots newer than the restore point describe state that the
		// replay will overwrite (join/sink snapshots are truncation-based);
		// drop them.
		keep := e.snaps[:0]
		for _, s := range e.snaps {
			if s.afterBatch <= j {
				keep = append(keep, s)
			}
		}
		e.snaps = keep
		recoveredFrom = j
		merged := e.mergeDeltas(j, e.batch)
		e.seenRows += merged.Len()
		bc = e.newBatchContext(merged, e.seenRows, true)
		markAttempt()
		if _, err := e.comp.sink.step(bc); err != nil {
			return nil, err
		}
	}
	e.observed = bc.observed
	result, ests := e.comp.sink.materialize(bc)
	u = &Update{
		Batch:             e.batch,
		Batches:           len(e.deltas),
		Fraction:          float64(e.seenRows) / float64(max(1, e.totalRows)),
		Result:            result,
		Estimates:         ests,
		Duration:          time.Since(start),
		Recomputed:        bc.recomputed,
		NDSetRows:         e.ndSetRows(),
		ShuffleBytes:      e.metrics.ShuffleBytes() - shuffleBefore,
		BroadcastBytes:    e.metrics.BroadcastBytes() - broadcastBefore,
		SpillBytesWritten: e.metrics.SpillBytesWritten() - spillWrittenBefore,
		SpillBytesRead:    e.metrics.SpillBytesRead() - spillReadBefore,
		Recoveries:        recoveries,
		RecoveredFrom:     recoveredFrom,
	}
	e.committedShuffle += u.ShuffleBytes
	e.committedBroadcast += u.BroadcastBytes
	e.committedSpillWritten += u.SpillBytesWritten
	e.committedSpillRead += u.SpillBytesRead
	for _, op := range e.comp.ops {
		if op.kind() == "join" {
			u.JoinStateBytes += op.stateBytes()
			if j, ok := op.(*opJoin); ok {
				u.JoinStateResidentBytes += j.residentBytes()
			}
		} else if s, ok := op.(*opSharedAgg); ok {
			u.SharedStateBytes += s.bytes
		} else {
			u.OtherStateBytes += op.stateBytes()
		}
	}
	for _, r := range e.comp.sharedRefs {
		if s, ok := r.(*sharedStore); ok {
			u.SharedStateBytes += int(s.SharedBytes())
		}
	}
	return u, nil
}

// SharedHitBytes reports the bytes of shared state this engine referenced
// via cache hits — state it did NOT have to build or privately hold. The
// serving layer uses it to charge sessions only their incremental
// reservation.
func (e *Engine) SharedHitBytes() int64 { return e.comp.sharedHitBytes }

func (e *Engine) ndSetRows() int {
	n := 0
	for _, op := range e.comp.ops {
		if s, ok := op.(*opSelect); ok {
			n += s.state.Len()
		}
	}
	return n
}

// Run processes every remaining batch and returns all updates.
func (e *Engine) Run() ([]*Update, error) {
	var out []*Update
	for !e.Done() {
		u, err := e.Step()
		if err != nil {
			return out, err
		}
		out = append(out, u)
	}
	return out, nil
}

// TotalExchangeBytes returns cumulative exchange traffic of both kinds
// (shuffle + broadcast) — the Fig 9(c)/10(d) "data shipped" total. It
// covers committed (successful) attempts only, so it equals the sum of the
// per-batch Update figures and never double-counts a §5.1 replay.
func (e *Engine) TotalExchangeBytes() int64 { return e.committedShuffle + e.committedBroadcast }

// TotalSpillBytesWritten returns cumulative bytes evicted to spill files by
// committed attempts.
func (e *Engine) TotalSpillBytesWritten() int64 { return e.committedSpillWritten }

// TotalSpillBytesRead returns cumulative bytes probes of committed attempts
// read back from spill files.
func (e *Engine) TotalSpillBytesRead() int64 { return e.committedSpillRead }

// CostSnapshot exports the adaptive cost model's per-class estimates (the
// learned ns/row the parallel cutovers derive from).
func (e *Engine) CostSnapshot() map[string]float64 { return e.run.CostSnapshot() }

// SetCutover pins the sequential/parallel cutover to a fixed row count for
// every operator class (n <= 0 restores the adaptive model); call it before
// the first Step. By default the engine learns an EWMA of measured per-row
// cost per operator class and derives the cutover from it
// (cluster.CostModel). Either way the cutover affects scheduling only, never
// results: the execution lattice (DESIGN.md §16) pins it to 1 to force every
// parallel path onto small fixtures.
func (e *Engine) SetCutover(n int) { e.run = cluster.NewRunner(e.opts.Workers, n) }

// SpilledRows returns the join-state rows currently living on disk.
func (e *Engine) SpilledRows() int { return e.spill.SpilledRows() }

// OpStat is one operator's per-batch runtime statistics (EXPLAIN
// ANALYZE-style observability).
type OpStat struct {
	// Kind is the operator class (scan/select/project/join/union/
	// aggregate/sink).
	Kind string
	// News and Unc are the rows emitted by the last batch: certain
	// (permanent) and tuple-uncertain (re-derived) respectively.
	News, Unc int
	// StateBytes is the operator's current Section-4.2 state footprint.
	StateBytes int
	// SpilledRows is how many of a join's cached rows live in spill files
	// (always 0 without a state budget, and for non-join operators).
	SpilledRows int
	// Redraws is how many weight vectors the operator drew last batch for
	// tuples of earlier batches: rows a join store kept by index, read by an
	// aggregate, an uncertain select or a join that keeps copies (always 0
	// for other operators).
	Redraws int
}

// OpStats reports per-operator statistics for the most recent batch, in
// bottom-up plan order.
func (e *Engine) OpStats() []OpStat {
	out := make([]OpStat, 0, len(e.comp.ops))
	for _, op := range e.comp.ops {
		news, unc := op.lastCounts()
		st := OpStat{
			Kind:       op.kind(),
			News:       news,
			Unc:        unc,
			StateBytes: op.stateBytes(),
		}
		switch o := op.(type) {
		case *opJoin:
			st.SpilledRows = o.spilledRows()
			st.Redraws = o.redraws
		case *opSelect:
			st.Redraws = o.redraws
		case *opAgg:
			st.Redraws = o.redraws
		}
		out = append(out, st)
	}
	return out
}

// clampBatches bounds the requested batch count by the row count (a batch
// must hold at least one row) and floors it at one.
func clampBatches(p, rows int) int {
	if p > rows && rows > 0 {
		p = rows
	}
	if p <= 0 {
		p = 1
	}
	return p
}

// ContiguousDeltas partitions src into p contiguous mini-batches with the
// engine's default boundaries (i·n/p) — exactly the slices NewEngine derives
// when Options.Deltas is empty. Exported so a serving layer can partition a
// shared table once and hand every session's engine the same schedule via
// Options.Deltas: the slices alias src's backing array, so N sessions scan
// one copy of the data.
func ContiguousDeltas(src *rel.Relation, p int) []*rel.Relation {
	p = clampBatches(p, src.Len())
	deltas := make([]*rel.Relation, p)
	n := src.Len()
	for i := 0; i < p; i++ {
		lo := i * n / p
		hi := (i + 1) * n / p
		d := rel.NewRelation(src.Schema)
		// Full slice expression: capacity is clamped to the batch, so an
		// append through this delta can never scribble over the first
		// rows of the next batch in the shared backing array.
		d.Tuples = src.Tuples[lo:hi:hi]
		deltas[i] = d
	}
	return deltas
}

// stratifyBatches splits the streamed relation into p mini-batches that
// each contain the same fraction of every stratum (value of column idx),
// preserving within-stratum order. Proportional allocation keeps the
// uniform scale m_i = |D|/|D_i| exact while guaranteeing every stratum is
// represented from the first batch — the stratified-sampling extension of
// Section 9. Boundaries round up, so a stratum with fewer rows than p puts
// its first row in batch 1 (and leaves later batches without it).
func stratifyBatches(src *rel.Relation, idx, p int) []*rel.Relation {
	strata := make(map[string][]rel.Tuple)
	var order []string
	for _, tp := range src.Tuples {
		k := tp.Vals[idx].String()
		if _, ok := strata[k]; !ok {
			order = append(order, k)
		}
		strata[k] = append(strata[k], tp)
	}
	deltas := make([]*rel.Relation, p)
	for i := 0; i < p; i++ {
		d := rel.NewRelation(src.Schema)
		for _, k := range order {
			rows := strata[k]
			lo := (i*len(rows) + p - 1) / p
			hi := ((i+1)*len(rows) + p - 1) / p
			d.Tuples = append(d.Tuples, rows[lo:hi:hi]...)
		}
		deltas[i] = d
	}
	return deltas
}
