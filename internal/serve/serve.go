// Package serve is the multi-query serving engine: a long-lived process
// admits many concurrent online-aggregation sessions over shared tables and
// drives them from one shared mini-batch scan.
//
// The unit of sharing is the batch schedule. Each streamed table is
// partitioned into mini-batches exactly once (core.ContiguousDeltas), and
// every session's engine receives the same delta slices through
// core.Options.Deltas — so N concurrent sessions scan one copy of the data,
// not N. Sessions on the same table ride the scan in cohorts: a pass over
// the table fans each mini-batch out to every session in the cohort (one
// independent delta pipeline per session), sessions opened mid-pass join the
// next pass, and a cohort's sessions finish together after the final batch
// with the exact answer.
//
// Because each session's pipeline is a private core.Engine over the shared
// schedule, a session's estimate trajectory is bit-identical to a solo run
// of the same query with the same options — concurrency changes wall clock
// and memory footprint, never results. The equivalence suite enforces this
// with math.Float64bits comparisons.
//
// Admission control is budget-based: every session reserves
// StateBudgetBytes (or DefaultSessionBytes) against its tenant's budget at
// Open. Sessions that would overflow the tenant budget are rejected — or
// queued FIFO when Config.QueueOnBudget is set — and a finished, cancelled
// or killed session releases its reservation, admitting queued sessions
// deterministically in arrival order.
package serve

import (
	"errors"
	"fmt"
	"sync"

	"iolap/internal/agg"
	"iolap/internal/bootstrap"
	"iolap/internal/core"
	"iolap/internal/exec"
	"iolap/internal/expr"
	"iolap/internal/plan"
	"iolap/internal/rel"
	"iolap/internal/share"
	"iolap/internal/sql"
)

// DefaultSessionBytes is the admission reservation of a session that does
// not declare StateBudgetBytes.
const DefaultSessionBytes = 1 << 20

// Sentinel errors surfaced by Open and Session.Err.
var (
	// ErrBudgetExhausted rejects an Open that would overflow the tenant
	// budget (Config.QueueOnBudget off) or the session cap.
	ErrBudgetExhausted = errors.New("serve: tenant state budget exhausted")
	// ErrCancelled reports a session torn down by Cancel, a dropped client
	// connection, or engine shutdown before its pass completed.
	ErrCancelled = errors.New("serve: session cancelled")
	// ErrClosed rejects operations on a closed engine.
	ErrClosed = errors.New("serve: engine closed")
)

// Config tunes the serving engine.
type Config struct {
	// Batches is the shared mini-batch count p per streamed table
	// (default 10). The schedule is engine-level, not per-session: sharing
	// one scan requires every session on a table to agree on its batches.
	Batches int
	// TenantBudgetBytes caps the summed state reservations of one tenant's
	// live sessions (0 = unlimited).
	TenantBudgetBytes int64
	// QueueOnBudget queues sessions FIFO at the budget boundary instead of
	// rejecting them; a released reservation admits the queue head(s) in
	// arrival order.
	QueueOnBudget bool
	// MaxSessions caps concurrently admitted sessions across all tenants
	// (0 = unlimited). The cap follows the same reject-or-queue policy as
	// the byte budget.
	MaxSessions int
	// DisableStateSharing turns off the cross-session shared-state cache
	// (DESIGN.md §13): every session builds private operator state, as
	// before PR 9. Sharing never changes results — this switch exists for
	// benchmarking the memory multiplier and as an operational escape
	// hatch.
	DisableStateSharing bool
}

func (c Config) withDefaults() Config {
	if c.Batches <= 0 {
		c.Batches = 10
	}
	return c
}

// SessionOptions tunes one session. Schedule-shaping options (batch count,
// shuffling, stratification) are deliberately absent: the scan schedule
// belongs to the engine so sessions can share it.
type SessionOptions struct {
	// Tenant names the budget the session's reservation is charged to
	// (empty = the anonymous tenant).
	Tenant string
	// Stream overrides which table is processed online for this query.
	Stream string
	// Mode selects the delta algorithm (default core.ModeIOLAP).
	Mode core.Mode
	// Trials is the bootstrap replicate count (default 100; negative
	// disables bootstrap).
	Trials int
	// Slack is the variation-range slack ε (default 2.0).
	Slack float64
	// Seed drives the session's bootstrap randomness.
	Seed uint64
	// Workers bounds the session's partition parallelism.
	Workers int
	// StateBudgetBytes is the session's state reservation: admission
	// charges it against the tenant budget, and when positive the
	// session's engine enforces it as the resident join-state budget
	// (spilling beyond it). Zero reserves DefaultSessionBytes for
	// admission and leaves spilling off.
	StateBudgetBytes int64
}

// Update is one refined partial result of a session, with ORDER BY / LIMIT
// applied and estimates aligned with the result rows.
type Update struct {
	Batch, Batches int
	Fraction       float64
	Columns        []string
	Result         *rel.Relation
	Estimates      [][]bootstrap.Estimate
	DurationMillis float64
	Recomputed     int
	// StateBytes is the session's private operator-state footprint after
	// the batch; SharedStateBytes is the footprint of cache-owned shared
	// state the session references (held once per cache entry, reported by
	// every holder). Both are memory diagnostics — bit-identity
	// comparisons (BitIdentical) exclude them.
	StateBytes       int
	SharedStateBytes int
}

// MaxRelStdev returns the worst relative standard deviation across all
// uncertain cells — a single accuracy number to stop on.
func (u *Update) MaxRelStdev() float64 { return bootstrap.MaxRelStdev(u.Estimates) }

// SessionState is the lifecycle position of a session.
type SessionState int32

// Session lifecycle states.
const (
	// StateQueued: waiting for tenant budget (QueueOnBudget).
	StateQueued SessionState = iota
	// StateWaiting: admitted, waiting to join the next scan pass.
	StateWaiting
	// StateRunning: riding a pass.
	StateRunning
	// StateDone: finished (exact answer delivered), failed, or cancelled.
	StateDone
)

func (s SessionState) String() string {
	switch s {
	case StateQueued:
		return "queued"
	case StateWaiting:
		return "waiting"
	case StateRunning:
		return "running"
	case StateDone:
		return "done"
	}
	return fmt.Sprintf("SessionState(%d)", int32(s))
}

// Session is one admitted (or queued) online-aggregation query. Next /
// Update / Err iterate its estimate stream cursor-style; the stream is
// buffered for the full pass, so a slow consumer never stalls the shared
// scan or its cohort peers.
type Session struct {
	id      uint64
	tenant  string
	query   string
	table   string
	reserve int64
	opts    SessionOptions

	e   *Engine
	eng *core.Engine
	pp  *sql.PostProcess

	// updates carries every batch result; capacity = the full pass, so the
	// scan loop's send never blocks.
	updates chan *Update
	cur     *Update

	mu        sync.Mutex
	state     SessionState
	err       error
	cancelled bool
	finished  bool
}

// ID returns the engine-assigned session id.
func (s *Session) ID() uint64 { return s.id }

// Tenant returns the budget the session is charged to.
func (s *Session) Tenant() string { return s.tenant }

// Table returns the streamed table the session scans.
func (s *Session) Table() string { return s.table }

// Batches returns the shared schedule's mini-batch count for the session's
// table.
func (s *Session) Batches() int { return cap(s.updates) }

// State returns the session's lifecycle position.
func (s *Session) State() SessionState {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state
}

// Next blocks for the next estimate; it returns false when the stream ends
// (exact answer delivered, session cancelled, or error — see Err).
func (s *Session) Next() bool {
	u, ok := <-s.updates
	if !ok {
		return false
	}
	s.cur = u
	return true
}

// Update returns the current estimate.
func (s *Session) Update() *Update { return s.cur }

// Err returns the session's terminal error: nil after a completed pass,
// ErrCancelled after Cancel/teardown, or the engine error that stopped it.
// Valid once Next has returned false.
func (s *Session) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Cancel tears the session down: a queued session finishes immediately, a
// waiting or running one is dropped at the next batch boundary (its
// reservation released either way). Idempotent; already-delivered estimates
// remain readable.
func (s *Session) Cancel() { s.e.cancel(s) }

// Close cancels the session and drains any undelivered estimates. Always
// call it when abandoning a session early; it is a no-op after normal
// completion.
func (s *Session) Close() error {
	s.Cancel()
	for s.Next() {
	}
	return nil
}

// fail records the terminal error (first one wins).
func (s *Session) fail(err error) {
	s.mu.Lock()
	if s.err == nil {
		s.err = err
	}
	s.mu.Unlock()
}

func (s *Session) isCancelled() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cancelled || s.err != nil
}

func (s *Session) setState(st SessionState) {
	s.mu.Lock()
	s.state = st
	s.mu.Unlock()
}

// stepOnce advances the session's pipeline by one shared mini-batch and
// delivers the refined estimate. It runs on the scan loop's fan-out
// goroutines; a failure marks the session for removal at the batch boundary.
func (s *Session) stepOnce() {
	u, err := s.eng.Step()
	if err != nil {
		s.fail(err)
		return
	}
	s.updates <- convertUpdate(u, s.pp)
}

func convertUpdate(u *core.Update, pp *sql.PostProcess) *Update {
	result, ests := pp.ApplyWithEstimates(u.Result, u.Estimates)
	return &Update{
		Batch:            u.Batch,
		Batches:          u.Batches,
		Fraction:         u.Fraction,
		Columns:          result.Schema.Names(),
		Result:           result,
		Estimates:        ests,
		DurationMillis:   float64(u.Duration.Microseconds()) / 1000,
		Recomputed:       u.Recomputed,
		StateBytes:       u.JoinStateBytes + u.OtherStateBytes,
		SharedStateBytes: u.SharedStateBytes,
	}
}

// Engine is the long-lived serving engine: shared tables, per-table batch
// schedules, tenant budgets, and one scan loop per streamed table fanning
// batches out to the admitted sessions.
type Engine struct {
	cfg   Config
	db    *exec.DB
	funcs *expr.Registry
	aggs  *agg.Registry

	mu        sync.Mutex
	cond      *sync.Cond
	streamed  map[string]bool
	schedules map[string][]*rel.Relation
	loops     map[string]bool
	pending   map[string][]*Session // admitted, waiting for the next pass
	queue     []*Session            // waiting for budget, FIFO
	sessions  map[uint64]*Session   // admitted and not yet finished
	tenants   map[string]int64      // reserved bytes per tenant
	nextID    uint64
	closed    bool
	wg        sync.WaitGroup

	// cache owns cross-session shared operator state (nil when
	// Config.DisableStateSharing): sessions whose plans contain equivalent
	// subtrees share one frozen join build store or inner-aggregate entry,
	// refcounted per session and evicted when the last holder finishes.
	cache *share.Cache

	// batchGate, when set, runs on the scan goroutine before each batch
	// boundary of every pass. Tests inject it (before the first Open) to hold
	// the scan at a chosen boundary, so a Cancel or a mid-pass Open lands
	// there by construction instead of by timing.
	batchGate func(batch int)

	stats Stats
}

// Stats are cumulative engine counters (monotonic; read with Snapshot).
type Stats struct {
	Opened    int64 // sessions admitted or queued
	Rejected  int64 // opens refused at the budget boundary
	Queued    int64 // opens that entered the budget queue
	Completed int64 // sessions that delivered their exact answer
	Cancelled int64 // sessions torn down before completion
	// SharedStateHits counts shared-state acquisitions satisfied by an
	// existing cache entry; SharedStateBytesSaved sums the state bytes
	// those hits did not rebuild (both 0 with DisableStateSharing).
	SharedStateHits       int64
	SharedStateBytesSaved int64
}

// NewEngine builds a serving engine over a database snapshot. streamed flags
// the tables processed online (the fan-out tables sessions share); funcs and
// aggs may be nil for the builtin registries. The table set is frozen at
// construction (db is cloned), so the caller may keep loading tables into
// its own DB without racing the scan loops.
func NewEngine(db *exec.DB, streamed map[string]bool, funcs *expr.Registry, aggs *agg.Registry, cfg Config) *Engine {
	if funcs == nil {
		funcs = expr.NewRegistry()
	}
	if aggs == nil {
		aggs = agg.NewRegistry()
	}
	e := &Engine{
		cfg:       cfg.withDefaults(),
		db:        db.Clone(),
		funcs:     funcs,
		aggs:      aggs,
		streamed:  make(map[string]bool, len(streamed)),
		schedules: make(map[string][]*rel.Relation),
		loops:     make(map[string]bool),
		pending:   make(map[string][]*Session),
		sessions:  make(map[uint64]*Session),
		tenants:   make(map[string]int64),
	}
	if !e.cfg.DisableStateSharing {
		e.cache = share.NewCache()
	}
	for name, st := range streamed {
		e.streamed[name] = st
	}
	e.cond = sync.NewCond(&e.mu)
	return e
}

// scheduleLocked returns (building if needed) the shared batch schedule of a
// streamed table. Callers hold e.mu.
func (e *Engine) scheduleLocked(table string) ([]*rel.Relation, error) {
	if d, ok := e.schedules[table]; ok {
		return d, nil
	}
	src, ok := e.db.Get(table)
	if !ok {
		return nil, fmt.Errorf("serve: unknown table %q", table)
	}
	d := core.ContiguousDeltas(src, e.cfg.Batches)
	e.schedules[table] = d
	if !e.loops[table] {
		e.loops[table] = true
		e.wg.Add(1)
		go e.scanLoop(table)
	}
	return d, nil
}

// Open admits a new online-aggregation session for the query. The session
// joins the next scan pass of its streamed table; if the tenant budget is
// exhausted it is rejected with ErrBudgetExhausted, or queued FIFO when
// Config.QueueOnBudget is set. Open never blocks on other sessions.
func (e *Engine) Open(query string, opts SessionOptions) (*Session, error) {
	node, pp, err := sql.PlanQuery(query, sql.CatalogOf(e.db, e.streamed, opts.Stream), e.funcs, e.aggs)
	if err != nil {
		return nil, err
	}
	table, err := streamedTable(node)
	if err != nil {
		return nil, err
	}

	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil, ErrClosed
	}
	deltas, err := e.scheduleLocked(table)
	if err != nil {
		e.mu.Unlock()
		return nil, err
	}
	reserve := opts.StateBudgetBytes
	if reserve <= 0 {
		reserve = DefaultSessionBytes
	}
	e.nextID++
	s := &Session{
		id:      e.nextID,
		tenant:  opts.Tenant,
		query:   query,
		table:   table,
		reserve: reserve,
		opts:    opts,
		e:       e,
		pp:      pp,
		updates: make(chan *Update, len(deltas)),
	}
	e.mu.Unlock()

	// Build the session's delta pipeline outside the engine lock: plan
	// compilation is per-session work and must not stall admission or the
	// scan loops.
	copts := core.Options{
		Mode:             opts.Mode,
		Trials:           opts.Trials,
		Slack:            opts.Slack,
		Seed:             opts.Seed,
		Workers:          opts.Workers,
		StateBudgetBytes: opts.StateBudgetBytes,
		Deltas:           deltas,
	}
	if e.cache != nil {
		// Overlap detection: compilation fingerprints eligible subtrees and
		// acquires their state from the shared cache (guarded assignment —
		// a typed-nil interface would defeat the engine's nil check).
		copts.SharedState = e.cache
	}
	eng, err := core.NewEngine(node, e.db, copts)
	if err != nil {
		return nil, err
	}
	s.eng = eng
	if hit := eng.SharedHitBytes(); hit > 0 {
		// Incremental charging: state served from the cache is already
		// paid for by the cohort; this session's reservation covers only
		// the state it actually adds.
		s.reserve -= hit
		if s.reserve < 0 {
			s.reserve = 0
		}
	}

	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		eng.Close()
		return nil, ErrClosed
	}
	if e.fitsLocked(s) {
		e.stats.Opened++
		e.admitLocked(s)
		return s, nil
	}
	if !e.cfg.QueueOnBudget {
		e.stats.Rejected++
		eng.Close()
		return nil, fmt.Errorf("%w: tenant %q reserved %d of %d bytes, session wants %d",
			ErrBudgetExhausted, opts.Tenant, e.tenants[opts.Tenant], e.cfg.TenantBudgetBytes, reserve)
	}
	e.stats.Opened++
	e.stats.Queued++
	s.state = StateQueued
	e.queue = append(e.queue, s)
	return s, nil
}

// fitsLocked reports whether the session's reservation fits the tenant
// budget and the session cap. Callers hold e.mu.
func (e *Engine) fitsLocked(s *Session) bool {
	if e.cfg.MaxSessions > 0 && len(e.sessions) >= e.cfg.MaxSessions {
		return false
	}
	if e.cfg.TenantBudgetBytes > 0 && e.tenants[s.tenant]+s.reserve > e.cfg.TenantBudgetBytes {
		return false
	}
	return true
}

// admitLocked reserves the session's budget and stages it for the next scan
// pass. Callers hold e.mu.
func (e *Engine) admitLocked(s *Session) {
	e.tenants[s.tenant] += s.reserve
	e.sessions[s.id] = s
	s.setState(StateWaiting)
	e.pending[s.table] = append(e.pending[s.table], s)
	e.cond.Broadcast()
}

// admitQueuedLocked admits queued sessions in strict FIFO order, stopping at
// the first that does not fit — deterministic at the budget boundary.
// Cancelled queue entries are finished and skipped. Callers hold e.mu.
func (e *Engine) admitQueuedLocked() {
	for len(e.queue) > 0 {
		s := e.queue[0]
		if s.isCancelled() {
			e.queue = e.queue[1:]
			e.finishLocked(s, ErrCancelled, false)
			continue
		}
		if !e.fitsLocked(s) {
			return
		}
		e.queue = e.queue[1:]
		e.admitLocked(s)
	}
}

// cancel implements Session.Cancel.
func (e *Engine) cancel(s *Session) {
	s.mu.Lock()
	if s.finished {
		s.mu.Unlock()
		return
	}
	s.cancelled = true
	wasQueued := s.state == StateQueued
	s.mu.Unlock()
	if !wasQueued {
		// Waiting/running sessions are dropped by the scan loop at the
		// next batch boundary (runPass filters on isCancelled).
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	for i, q := range e.queue {
		if q == s {
			e.queue = append(e.queue[:i], e.queue[i+1:]...)
			e.finishLocked(s, ErrCancelled, false)
			return
		}
	}
}

// finishLocked terminates a session: records the terminal error, releases
// its reservation when it held one, closes its pipeline and its estimate
// stream, and admits queued sessions into the freed budget. Callers hold
// e.mu.
func (e *Engine) finishLocked(s *Session, err error, reserved bool) {
	s.mu.Lock()
	if s.finished {
		s.mu.Unlock()
		return
	}
	s.finished = true
	if s.err == nil {
		s.err = err
	}
	terr := s.err
	s.state = StateDone
	s.mu.Unlock()
	if reserved {
		e.tenants[s.tenant] -= s.reserve
		if e.tenants[s.tenant] == 0 {
			delete(e.tenants, s.tenant)
		}
		delete(e.sessions, s.id)
	}
	if s.eng != nil {
		s.eng.Close()
	}
	if terr != nil {
		e.stats.Cancelled++
	} else {
		e.stats.Completed++
	}
	close(s.updates)
	e.admitQueuedLocked()
}

// finish is finishLocked for callers not holding e.mu.
func (e *Engine) finish(s *Session, err error, reserved bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.finishLocked(s, err, reserved)
}

// scanLoop drives one streamed table: it waits for admitted sessions, takes
// them as a cohort, and runs one pass over the shared schedule — each
// mini-batch read once and fanned out to every session's delta pipeline.
// Sessions admitted mid-pass form the next cohort.
func (e *Engine) scanLoop(table string) {
	defer e.wg.Done()
	for {
		e.mu.Lock()
		for !e.closed && len(e.pending[table]) == 0 {
			e.cond.Wait()
		}
		if e.closed {
			e.mu.Unlock()
			return
		}
		cohort := e.pending[table]
		e.pending[table] = nil
		deltas := e.schedules[table]
		e.mu.Unlock()
		e.runPass(cohort, len(deltas))
	}
}

// runPass fans p mini-batches out to the cohort: per batch, one goroutine
// per live session steps that session's pipeline, with a barrier between
// batches (the shared scan advances batch-synchronously). Cancelled or
// failed sessions are dropped at batch boundaries; survivors finish with
// the exact answer after batch p.
func (e *Engine) runPass(cohort []*Session, p int) {
	live := cohort
	var wg sync.WaitGroup
	for b := 0; b < p; b++ {
		if e.batchGate != nil {
			e.batchGate(b)
		}
		// Compact in place at the boundary: drop cancelled/failed sessions
		// and release their budget, reusing the cohort backing array so the
		// steady-state fan-out allocates nothing per batch.
		kept := live[:0]
		for _, s := range live {
			if s.isCancelled() {
				e.finish(s, ErrCancelled, true)
				continue
			}
			kept = append(kept, s)
		}
		live = kept
		if len(live) == 0 {
			return
		}
		if b == 0 {
			for _, s := range live {
				s.setState(StateRunning)
			}
		}
		if len(live) == 1 {
			// No fan-out needed: step on the scan goroutine itself.
			live[0].stepOnce()
			continue
		}
		wg.Add(len(live))
		for _, s := range live {
			go func(s *Session) {
				defer wg.Done()
				s.stepOnce()
			}(s)
		}
		wg.Wait()
	}
	for _, s := range live {
		s.mu.Lock()
		failed := s.err
		s.mu.Unlock()
		e.finish(s, failed, true)
	}
}

// SessionCount returns how many sessions are admitted and unfinished.
func (e *Engine) SessionCount() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.sessions)
}

// QueueLen returns how many sessions wait for budget.
func (e *Engine) QueueLen() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.queue)
}

// TenantReserved returns a tenant's currently reserved bytes.
func (e *Engine) TenantReserved(tenant string) int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.tenants[tenant]
}

// Snapshot returns the cumulative engine counters.
func (e *Engine) Snapshot() Stats {
	e.mu.Lock()
	st := e.stats
	e.mu.Unlock()
	if e.cache != nil {
		cs := e.cache.Stats()
		st.SharedStateHits = cs.Hits
		st.SharedStateBytesSaved = cs.BytesSaved
	}
	return st
}

// SharedLiveBytes returns the current footprint of the shared-state cache:
// bytes held once regardless of how many sessions reference them (0 with
// DisableStateSharing).
func (e *Engine) SharedLiveBytes() int64 {
	if e.cache == nil {
		return 0
	}
	return e.cache.Stats().LiveBytes
}

// SharedPeakBytes returns the high-water mark of the shared cache footprint
// over the engine's lifetime. Unlike SharedLiveBytes it is monotonic, so it
// can be read after sessions finish — short-lived sessions evict their
// entries before an observer would catch LiveBytes non-zero.
func (e *Engine) SharedPeakBytes() int64 {
	if e.cache == nil {
		return 0
	}
	return e.cache.Stats().PeakLiveBytes
}

// Batches returns the shared schedule length for a table (0 until a session
// first streams it).
func (e *Engine) Batches(table string) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.schedules[table])
}

// Close shuts the engine down: queued sessions finish with ErrCancelled,
// running cohorts are dropped at the next batch boundary, and the scan
// loops exit. Close blocks until the loops are gone; it is idempotent.
func (e *Engine) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	for len(e.queue) > 0 {
		s := e.queue[0]
		e.queue = e.queue[1:]
		e.finishLocked(s, ErrCancelled, false)
	}
	for _, s := range e.sessions {
		s.mu.Lock()
		s.cancelled = true
		s.mu.Unlock()
	}
	// Waiting sessions that never joined a pass are finished here; running
	// ones are dropped by their pass at the next boundary.
	for table, pend := range e.pending {
		for _, s := range pend {
			e.finishLocked(s, ErrCancelled, true)
		}
		e.pending[table] = nil
	}
	e.cond.Broadcast()
	e.mu.Unlock()
	e.wg.Wait()
	// The loops are gone; any sessions still marked live were mid-pass and
	// have been finished by their pass teardown.
	return nil
}

// streamedTable resolves the one streamed table of a planned query.
func streamedTable(root plan.Node) (string, error) {
	seen := map[string]bool{}
	var names []string
	for _, sc := range plan.StreamedScans(root) {
		if !seen[sc.Table] {
			seen[sc.Table] = true
			names = append(names, sc.Table)
		}
	}
	if len(names) != 1 {
		return "", fmt.Errorf("serve: exactly one streamed table required, query has %d (%v)", len(names), names)
	}
	return names[0], nil
}
