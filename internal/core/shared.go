package core

// Cross-session shared operator state (DESIGN.md §13).
//
// A serving engine's sessions all ride one mini-batch schedule, so any
// operator state that is a deterministic function of (plan subtree,
// schedule, execution parameters) is byte-identical across sessions whose
// plans contain equivalent subtrees. Options.SharedState is the seam: when
// set, compilation fingerprints eligible subtrees (internal/share) and
// acquires their state from the cache instead of building a private copy.
//
// Two shapes are shared:
//
//   - Join build sides over static, certain subtrees ("frozen stores"):
//     the build-side delta pipeline runs exactly once — at batch 1 it emits
//     every row and is silent forever after — so its HashStore is frozen
//     the moment it is built. The cache builds it once by stepping a
//     throwaway copy of the subtree's operators; every session's opJoin
//     probes the same store and never writes it, which is what makes
//     post-barrier reads lock-free. Snapshot/restore skip a frozen store
//     (restoring an immutable value is the identity), so §5.1 replay
//     "replays once, not per session" trivially.
//
//   - Inner (non-root) aggregate subtrees: a sharedAggEntry owns one copy
//     of the subtree's operators and steps them once per requested batch
//     range, memoizing each step's emissions and published table. The
//     first session to reach a batch is the designated owner that performs
//     the write; cohort peers arriving at the same (state, batch) get the
//     memoized result without touching operator state. Because §5.1
//     recovery replays merged batch ranges — and a replayed range leaves
//     different range-tracking state than stepping its batches one by one
//     — entry states are keyed by the *path* of ranges stepped, not the
//     batch label alone: sessions whose recovery histories diverge fork to
//     private paths and stay bit-identical to their solo oracles.
//
// Ownership is refcounted: every acquisition registers a release on the
// session's compiled plan, Engine.Close releases them (idempotently), and
// the cache evicts an entry when its last holder releases.

import (
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"

	"iolap/internal/delta"
	"iolap/internal/expr"
	"iolap/internal/plan"
	"iolap/internal/rel"
	"iolap/internal/share"
)

// releaseShared releases every shared-state acquisition of this plan.
// Idempotent: the underlying releases are once-guarded and the slice is
// cleared.
func (c *compiled) releaseShared() {
	for _, r := range c.releases {
		r()
	}
	c.releases = nil
}

// private returns the compiler a shared entry builds its own operators
// with: this plan's analysis, options and estimator, but no cache (the
// entry's subtree is built once, privately), no spill budget (the entry's
// state belongs to no session) and none of this plan's operators.
func (c *compiled) private() *compiled {
	b := &compiled{analysis: c.analysis, norm: c.norm, table: c.table, scaleExp: c.scaleExp,
		opts: c.opts, est: c.est, db: c.db}
	b.opts.SharedState = nil
	return b
}

// udfBuildError, deferred in a shared-state build callback, returns a
// panicking user function (expr.UDFPanic) as the build's error, so the cache
// fails the entry and NewEngine fails the query. Any other panic keeps
// unwinding.
func udfBuildError(err *error) {
	if r := recover(); r != nil {
		p, ok := r.(expr.UDFPanic)
		if !ok {
			panic(r)
		}
		*err = p
	}
}

// ---------------------------------------------------------------------------
// Frozen join build sides

// sharedStore is the cache value for a frozen join build side.
type sharedStore struct {
	store *delta.HashStore
}

func (s *sharedStore) SharedBytes() int64 { return int64(s.store.SizeBytes()) }

// opSharedBuild stands in for a join's build subtree whose output lives in
// a shared frozen store: it emits nothing (the store already holds every
// row) and carries no state.
type opSharedBuild struct {
	emitCounts
	node plan.Node
}

func (o *opSharedBuild) step(*batchContext) (output, error) { return output{}, nil }
func (o *opSharedBuild) snapshot() interface{}              { return nil }
func (o *opSharedBuild) restore(interface{})                {}
func (o *opSharedBuild) stateBytes() int                    { return 0 }
func (o *opSharedBuild) kind() string                       { return "shared-build" }

// acquireSharedBuild tries to satisfy a join's build-side store from the
// shared cache. It returns (nil, false, nil) when the join is not eligible;
// eligibility is conservative — sharing must never change results:
//
//   - the right (build) side is a static, certain subtree, so the store's
//     content is schedule- and seed-independent and frozen after batch 1;
//   - only the right side caches (cacheR && !cacheL): a static certain
//     build side never forces a cached left, and the frozen-store argument
//     covers exactly this orientation;
//   - keyed joins only.
func (c *compiled) acquireSharedBuild(t *plan.Join, cacheL, cacheR bool) (*delta.HashStore, bool, error) {
	if c.opts.SharedState == nil {
		return nil, false, nil
	}
	// A static, certain build side: it reads no streamed scan, so no
	// aggregate below it runs on incomplete data (whose outputs can be
	// uncertain and batch-coupled).
	r := c.analysis.Info[t.R.ID()]
	if !cacheR || cacheL || len(t.RKeys) == 0 || r.Incomplete {
		return nil, false, nil
	}
	key := fmt.Sprintf("join|rk=%v|%s", t.RKeys, share.Fingerprint(t.R))
	v, release, hit, err := c.opts.SharedState.Acquire(key, func() (_ any, err error) {
		defer udfBuildError(&err)
		st, err := c.buildFrozenStore(t.R, t.RKeys)
		if err != nil {
			return nil, err
		}
		return &sharedStore{store: st}, nil
	})
	if err != nil {
		return nil, false, err
	}
	ss := v.(*sharedStore)
	c.releases = append(c.releases, release)
	c.sharedRefs = append(c.sharedRefs, ss)
	if hit {
		c.sharedHitBytes += ss.SharedBytes()
	}
	return ss.store, true, nil
}

// buildFrozenStore builds the build-side subtree's operators privately,
// drives the single step that consumes the static tables, and freezes the
// emitted rows into a HashStore keyed like the join expects. The store's
// per-key insertion order is the subtree's emission (scan) order — the same
// order the solo engine's transient per-batch store sees, which is what
// makes probes against the frozen store byte-identical to a solo run.
func (c *compiled) buildFrozenStore(sub plan.Node, rkeys []int) (*delta.HashStore, error) {
	b := c.private()
	root, err := b.build(sub)
	if err != nil {
		return nil, err
	}
	// A bare context (no workers, metrics or columnar filter): the one step runs
	// inside the cache's build callback, on whichever session got there first,
	// and must cost and count nothing on that session's engine. A static
	// subtree reads no delta and no scale.
	bc := newBatchContext(b.opts, 1, 0, 0, nil, c.db)
	out, err := root.step(bc)
	if err != nil {
		return nil, err
	}
	if len(out.unc) != 0 {
		return nil, fmt.Errorf("core: shared build side emitted %d uncertain rows (subtree is not certain)", len(out.unc))
	}
	store := delta.NewHashStore(rkeys)
	store.AddBatch(out.news, false, nil)
	return store, nil
}

// ---------------------------------------------------------------------------
// Shared inner aggregates

// sharedAggIDs hands out operator ids for shared aggregate entries. They
// start far above any per-plan node id so a shared entry's published table
// and lineage refs can never collide with a session's private operators.
var sharedAggIDs atomic.Int64

const sharedAggIDBase = 1 << 20

func nextSharedAggID() int {
	return sharedAggIDBase + int(sharedAggIDs.Add(1))
}

// sharedStepResult is one memoized step of a shared aggregate subtree. All
// fields are immutable once memoized — rows always are (delta.Row), and the
// published table is frozen (aggTable.freeze) — so handing the same result to
// many sessions is safe.
type sharedStepResult struct {
	news, unc  []delta.Row
	table      *aggTable
	failures   []failure
	observed   int
	recomputed int
	bytes      int // the entry's operator-state footprint after this step
}

// sharedAggEntry owns one copy of an inner-aggregate subtree's operators
// and serves step results to every session whose plan contains an
// equivalent subtree. State evolution is keyed by path — the ":"-joined
// sequence of batch labels stepped so far — because a §5.1 merged replay
// leaves different range-tracking state than stepping the same batches one
// at a time; sessions with diverging recovery histories therefore fork to
// their own paths instead of silently sharing mismatched state.
type sharedAggEntry struct {
	id        int
	table     string // streamed table name
	deltas    []*rel.Relation
	totalRows int
	db        dbView
	opts      Options

	mu     sync.Mutex
	ops    []operator
	root   operator
	cur    string                       // path of the live operator state
	states map[string][]interface{}     // per-op snapshots by path
	memo   map[string]*sharedStepResult // step results by path+":"+to
	bytes  int64                        // high-water resident footprint of ops (lock-free reads)
}

func pathKey(path string, to int) string {
	return path + ":" + strconv.Itoa(to)
}

// SharedBytes reports the entry's operator-state high-water footprint.
func (en *sharedAggEntry) SharedBytes() int64 {
	return atomic.LoadInt64(&en.bytes)
}

// stepRange advances the shared subtree from the state reached via path
// (which has consumed batches (0, from]) to batch to, consuming the merged
// delta (from, to] — exactly what a solo engine's subtree would do on that
// step, including a recovery replay. The first caller for a given
// (path, to) performs the write; later callers get the memoized result.
func (en *sharedAggEntry) stepRange(path string, from, to int) (*sharedStepResult, error) {
	en.mu.Lock()
	defer en.mu.Unlock()
	key := pathKey(path, to)
	if r, ok := en.memo[key]; ok {
		return r, nil
	}
	if en.cur != path {
		snap, ok := en.states[path]
		if !ok {
			return nil, fmt.Errorf("core: shared aggregate #%d: no state for path %q", en.id, path)
		}
		for i, op := range en.ops {
			op.restore(snap[i])
		}
		en.cur = path
	}
	merged := rel.NewRelation(en.deltas[0].Schema)
	seen := 0
	for b := 1; b <= to; b++ {
		n := en.deltas[b-1].Len()
		seen += n
		if b > from {
			merged.Tuples = append(merged.Tuples, en.deltas[b-1].Tuples...)
		}
	}
	// A bare context (no workers, metrics or columnar filter): the step runs
	// under en.mu on behalf of every holding session, so it borrows no
	// session's workers, books no traffic on any session's metrics, and takes
	// the row paths.
	bc := newBatchContext(en.opts, to, seen, en.totalRows,
		map[string]*rel.Relation{en.table: merged}, en.db)
	bc.replay = to-from > 1
	out, err := en.root.step(bc)
	if err != nil {
		return nil, err
	}
	// Capacity-clamped: every holder gets these slices, and a parent that
	// appends to its child's output (opUnion) must copy, not write into the
	// memo's spare capacity. Holders read the table after the entry has
	// moved on, so it is frozen first.
	table := bc.tables[en.id]
	table.freeze()
	res := &sharedStepResult{
		news:       out.news[:len(out.news):len(out.news)],
		unc:        out.unc[:len(out.unc):len(out.unc)],
		table:      table,
		failures:   bc.failures,
		observed:   bc.observed,
		recomputed: bc.recomputed,
	}
	for _, op := range en.ops {
		res.bytes += op.stateBytes()
	}
	en.cur = key
	if _, ok := en.states[key]; !ok {
		snap := make([]interface{}, len(en.ops))
		for i, op := range en.ops {
			snap[i] = op.snapshot()
		}
		en.states[key] = snap
	}
	en.memo[key] = res
	if int64(res.bytes) > atomic.LoadInt64(&en.bytes) {
		atomic.StoreInt64(&en.bytes, int64(res.bytes))
	}
	return res, nil
}

// opSharedAgg is a session's view of a shared aggregate subtree: a
// stateless proxy that requests batch ranges from the entry and republishes
// the memoized table into the session's batch context. Its only state is
// the (seen, path) cursor, so session snapshot/restore — and through it
// §5.1 replay — costs nothing and never touches the shared operators.
// bytes is the entry's footprint as of the step this session last took,
// which its Update reports.
type opSharedAgg struct {
	emitCounts
	node  *plan.Aggregate
	entry *sharedAggEntry
	seen  int
	path  string
	bytes int
}

type sharedAggSnap struct {
	seen int
	path string
}

func (o *opSharedAgg) step(bc *batchContext) (output, error) {
	res, err := o.entry.stepRange(o.path, o.seen, bc.batch)
	if err != nil {
		return output{}, err
	}
	o.path = pathKey(o.path, bc.batch)
	o.seen = bc.batch
	o.bytes = res.bytes
	bc.publish(o.entry.id, res.table)
	bc.recomputed += res.recomputed
	bc.failures = append(bc.failures, res.failures...)
	bc.observed += res.observed
	out := output{news: res.news, unc: res.unc}
	o.record(out)
	return out, nil
}

func (o *opSharedAgg) snapshot() interface{} {
	return sharedAggSnap{seen: o.seen, path: o.path}
}

func (o *opSharedAgg) restore(snap interface{}) {
	s := snap.(sharedAggSnap)
	o.seen, o.path = s.seen, s.path
}

func (o *opSharedAgg) stateBytes() int { return 0 }
func (o *opSharedAgg) kind() string    { return "agg-shared" }

// acquireSharedAgg tries to satisfy an inner aggregate subtree from the
// shared cache. Eligibility is conservative:
//
//   - never the plan root (root aggregates ARE the session's query; sharing
//     them would only dedupe byte-identical queries while perturbing the
//     budget arithmetic callers rely on — inner subquery aggregates are
//     where the overlap win lives);
//   - ModeIOLAP, caller-supplied schedule (the serving engine), a subtree
//     that reads the plan's streamed table and no aggregate over incomplete
//     data below the root (plan.NodeInfo.Aggregated);
//   - the cache key carries every parameter that shapes the state: the
//     canonical subtree fingerprint, seed/trials/slack, the estimator's
//     effective range support and range tracking, and the schedule identity
//     (table, batch count, total rows).
func (c *compiled) acquireSharedAgg(t *plan.Aggregate) (operator, bool, error) {
	opts := c.opts
	if opts.SharedState == nil {
		return nil, false, nil
	}
	if t == c.norm || opts.Mode != ModeIOLAP || len(opts.Deltas) == 0 {
		return nil, false, nil
	}
	if !c.analysis.Info[t.ID()].Incomplete || c.analysis.Info[t.Child.ID()].Aggregated {
		return nil, false, nil
	}
	totalRows := 0
	for _, d := range opts.Deltas {
		totalRows += d.Len()
	}
	key := fmt.Sprintf("agg|mode=%d|trials=%d|seed=%d|slack=%g|minsup=%d|ranges=%v|table=%s|p=%d|n=%d|%s",
		opts.Mode, opts.Trials, opts.Seed, opts.Slack, c.est.support, c.est.track,
		c.table, len(opts.Deltas), totalRows, share.Fingerprint(t))
	v, release, hit, err := opts.SharedState.Acquire(key, func() (_ any, err error) {
		defer udfBuildError(&err)
		return c.buildSharedAggEntry(t, totalRows)
	})
	if err != nil {
		return nil, false, err
	}
	en := v.(*sharedAggEntry)
	c.releases = append(c.releases, release)
	c.sharedRefs = append(c.sharedRefs, en)
	if hit {
		c.sharedHitBytes += en.SharedBytes()
	}
	op := &opSharedAgg{node: t, entry: en}
	return op, true, nil
}

// buildSharedAggEntry builds the entry's private copy of the subtree
// operators and takes the initial (empty-state) snapshot. The subtree's
// root aggregate publishes under the entry's id so lineage refs resolve the
// same way in every holding session.
func (c *compiled) buildSharedAggEntry(t *plan.Aggregate, totalRows int) (*sharedAggEntry, error) {
	b := c.private()
	root, err := b.build(t)
	if err != nil {
		return nil, err
	}
	en := &sharedAggEntry{
		id:        nextSharedAggID(),
		table:     c.table,
		deltas:    c.opts.Deltas,
		totalRows: totalRows,
		db:        c.db,
		opts:      b.opts,
		ops:       b.ops,
		root:      root,
		states:    make(map[string][]interface{}),
		memo:      make(map[string]*sharedStepResult),
	}
	ra, ok := root.(*opAgg)
	if !ok {
		return nil, fmt.Errorf("core: shared aggregate subtree built %T, want *opAgg", root)
	}
	ra.pubID = en.id
	snap := make([]interface{}, len(en.ops))
	for i, op := range en.ops {
		snap[i] = op.snapshot()
	}
	en.states[""] = snap
	return en, nil
}
