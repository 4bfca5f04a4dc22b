// The coordinator side: owns the worker connections, drives the lockstep
// batch protocol around its own engine replica, and implements the engine's
// core.Exchanger by collecting worker spans, merging in span order, and
// broadcasting the merged site back.
//
// Failure model (the §5.1 story carried onto the wire): the coordinator is
// the single failure detector. A worker is declared dead on a connection
// error or when a span/pong/batch-done read times out after the per-task
// deadline has been exponentially escalated Retries times. A worker that
// dies mid-batch stays in that batch's frozen span assignment — span
// boundaries never shift mid-flight — and its spans are re-dispatched:
// shipped to a surviving worker (round-robin from the dead rank) or, when
// none can take them, computed by the coordinator itself. Either way the
// merged site holds byte-identical payloads to the all-alive run, because
// every span is a pure function of the replicated batch state — which is the
// whole re-dispatch determinism argument. Dead workers are dropped from the
// next batch's frozen live set.
//
// Membership is elastic in the other direction too: new workers admitted via
// Admit (or an AcceptJoiners listener) are handed the retained replica
// blueprint plus a catch-up count, replay every completed batch locally in
// self-exchange mode, prove convergence against the coordinator's last
// result digest, and enter the next batch's frozen live set at a fresh,
// never-reused rank. Because replay is deterministic and span-decomposition
// insensitive, a joiner's replica is bit-identical to one that was present
// from the start.
//
// Span sizing is cost-driven: every span frame carries the sender's measured
// compute nanos, each peer (and the coordinator itself) feeds a
// cluster.CostModel EWMA, and each batch freezes a weight vector — announced
// in msgStep — from which all replicas derive the same weightedSpans
// assignment. A persistently slow worker gets proportionally smaller spans
// before deadline escalation ever has to expel it. Weights affect placement
// only, never merged bytes.
package dist

import (
	"fmt"
	"math"
	"net"
	"sync"
	"time"

	"iolap/internal/cluster"
	"iolap/internal/core"
	"iolap/internal/exec"
	"iolap/internal/wire"
)

// Config tunes coordinator failure detection. The zero value is ready to use.
type Config struct {
	// MinRows is the smallest operator site worth distributing (default
	// 32). Shipped to workers in Setup so every replica gates identically.
	MinRows int
	// SpanDeadline is the initial read deadline when awaiting a span or
	// acknowledgement from a worker (default 2s). Each expiry doubles it.
	SpanDeadline time.Duration
	// Retries is how many deadline escalations a silent worker is granted
	// before being declared dead (default 3: total patience is
	// SpanDeadline·(2^(Retries+1)−1)).
	Retries int
	// HeartbeatInterval is the worker-idle span after which the coordinator
	// pings before starting a batch (default 30s). Heartbeats only run
	// between batches, where a dead worker can still be dropped from the
	// next frozen live set cheaply.
	HeartbeatInterval time.Duration
	// SetupDeadline bounds the wait for a worker to build its replica
	// (default 60s — setup decodes whole tables and compiles the plan, and
	// for a mid-query joiner also covers the catch-up replay).
	SetupDeadline time.Duration
	// Logf, when set, receives diagnostics (default: discard).
	Logf func(format string, args ...interface{})
}

func (c Config) withDefaults() Config {
	if c.MinRows <= 0 {
		c.MinRows = 32
	}
	if c.SpanDeadline <= 0 {
		c.SpanDeadline = 2 * time.Second
	}
	if c.Retries <= 0 {
		c.Retries = 3
	}
	if c.HeartbeatInterval <= 0 {
		c.HeartbeatInterval = 30 * time.Second
	}
	if c.SetupDeadline <= 0 {
		c.SetupDeadline = 60 * time.Second
	}
	if c.Logf == nil {
		c.Logf = func(string, ...interface{}) {}
	}
	return c
}

// maxWait is the total patience granted a silent worker.
func (c Config) maxWait() time.Duration {
	d := c.SpanDeadline
	total := time.Duration(0)
	for i := 0; i <= c.Retries; i++ {
		total += d
		d *= 2
	}
	return total
}

// Span-weight scale: the coordinator's own weight is weightScale, a worker's
// is weightScale scaled by the ratio of mean per-row cost estimates, clamped
// to [1, weightMax]. Both ends seed identical cold-start priors, so the
// ratio starts at 1 and only drifts on real measurements.
const (
	weightScale = 16
	weightMax   = 64
)

// peer is one worker connection plus its liveness state.
type peer struct {
	rank      int // participant rank (1-based; 0 is the coordinator itself)
	conn      net.Conn
	dead      bool
	err       error     // why it died
	lastHeard time.Time // last frame received (heartbeat bookkeeping)
	// pending stashes current-seq span frames read while awaiting a
	// different span from this worker (its own span arriving while it
	// serves a re-dispatched compute request).
	pending []spanMsg
	// cost tracks this worker's measured per-row compute cost (EWMA over
	// the nanos its span frames report), driving its span weight.
	cost *cluster.CostModel
	// rbuf is the connection's reusable frame-read buffer; recv's payloads
	// alias it and are consumed (decoded with copying readers) before the
	// next recv on the same peer.
	rbuf []byte
}

// Coordinator drives a set of remote workers in lockstep with a local engine
// replica. It implements core.Exchanger; plug it into core.Options.Exchange
// of the engine whose Step it drives. The protocol runs on the engine
// goroutine, but Admit and Close are safe to call concurrently with it.
type Coordinator struct {
	cfg   Config
	batch int
	seq   uint64
	// batchLive is the frozen membership of the in-flight batch: the peers
	// whose ranks were announced in msgStep, in rank order, including any
	// that died after the freeze.
	batchLive []*peer
	// batchWeights is the frozen span-weight vector of the in-flight batch:
	// index 0 is the coordinator, index i+1 the peer at batchLive[i].
	batchWeights []int

	// mu guards peers (the slice and each peer's dead/err), closed, and the
	// membership counters — the fields that Close and Admit-driven joins
	// touch off the engine goroutine.
	mu    sync.Mutex
	peers []*peer
	// nextRank is the rank the next admitted joiner receives. Ranks are
	// never reused: a rank identifies one replica incarnation, and reusing
	// one after expulsion would let a stale frame merge.
	nextRank int

	metrics            cluster.Metrics // wire byte counters only
	redispatched       int             // spans of dead workers handled (any way)
	redispatchedRemote int             // of those, spans shipped to a survivor

	selfCost *cluster.CostModel // the coordinator replica's own measured cost

	// Replica blueprint, retained from Setup so mid-query joiners can be
	// handed the same construction inputs plus a catch-up count.
	bpDB       *exec.DB
	bpStreamed map[string]bool
	bpSQL      string
	bpOpts     core.Options

	completed  int    // batches fully finished (joiner catch-up count)
	lastDigest uint64 // result digest of the last completed batch

	joinMu  sync.Mutex
	joiners []net.Conn // admitted but not yet set-up connections

	setup  bool
	closed bool
}

// NewCoordinator wraps already-dialed worker connections. Connection order
// fixes worker ranks (conns[i] is rank i+1), so pass the same order every
// run for reproducible placement.
func NewCoordinator(conns []net.Conn, cfg Config) *Coordinator {
	c := &Coordinator{cfg: cfg.withDefaults(), selfCost: cluster.NewCostModel(0)}
	for i, conn := range conns {
		c.peers = append(c.peers, &peer{rank: i + 1, conn: conn, cost: cluster.NewCostModel(0)})
	}
	c.nextRank = len(conns) + 1
	return c
}

// Setup ships the replica blueprint — tables, streamed flags, SQL text and
// the result-relevant engine options — to every worker and waits for each to
// build its engine. Any worker failing setup fails the whole call: a
// mis-provisioned cluster should be loud, not silently smaller.
func (c *Coordinator) Setup(db *exec.DB, streamed map[string]bool, sqlText string, opts core.Options) error {
	if c.setup {
		return fmt.Errorf("dist: coordinator already set up")
	}
	c.setup = true
	c.bpDB, c.bpStreamed, c.bpSQL, c.bpOpts = db, streamed, sqlText, opts
	for _, p := range c.peers {
		payload, err := encodeSetup(p.rank, c.cfg.MinRows, opts, sqlText, db, streamed, 0, 0, 0)
		if err != nil {
			return err
		}
		if err := c.send(p, msgSetup, payload); err != nil {
			return fmt.Errorf("dist: setup worker %d: %w", p.rank, err)
		}
	}
	for _, p := range c.peers {
		typ, pl, err := c.recv(p, c.cfg.SetupDeadline)
		if err != nil {
			return fmt.Errorf("dist: setup worker %d: %w", p.rank, err)
		}
		switch typ {
		case msgSetupOK:
		case msgError:
			return fmt.Errorf("dist: worker %d setup failed: %s", p.rank, pl)
		default:
			return fmt.Errorf("dist: worker %d: unexpected frame type %d during setup", p.rank, typ)
		}
	}
	return nil
}

// Admit queues a freshly-connected worker for admission at the next batch
// boundary. Safe to call from any goroutine (an accept loop, typically); the
// connection is handed the blueprint and replays completed batches inside
// the next beginBatch, before the live set freezes.
func (c *Coordinator) Admit(conn net.Conn) {
	c.joinMu.Lock()
	c.joiners = append(c.joiners, conn)
	c.joinMu.Unlock()
}

// AcceptJoiners runs an accept loop on l in a new goroutine, admitting every
// inbound connection. It stops when the listener is closed.
func (c *Coordinator) AcceptJoiners(l net.Listener) {
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			c.Admit(conn)
		}
	}()
}

// Step drives one lockstep mini-batch: freeze membership and announce the
// batch, step the local replica (whose distributed sites call back into
// Exchange), then collect and verify every worker's result digest.
func (c *Coordinator) Step(e *core.Engine) (*core.Update, error) {
	c.beginBatch()
	u, err := e.Step()
	if err != nil {
		return nil, err
	}
	c.finishBatch(u)
	return u, nil
}

// beginBatch admits queued joiners, runs the heartbeat sweep, freezes the
// live set and the span weights, and announces the batch. A send failure
// marks the worker dead but does not shrink the frozen set: the assignment
// is already announced to the survivors, so the dead worker's spans will be
// re-dispatched instead.
func (c *Coordinator) beginBatch() {
	c.batch++
	c.drainJoiners()
	c.heartbeat()
	c.mu.Lock()
	live := make([]*peer, 0, len(c.peers))
	ranks := make([]int, 0, len(c.peers))
	for _, p := range c.peers {
		if !p.dead {
			live = append(live, p)
			ranks = append(ranks, p.rank)
		}
	}
	c.mu.Unlock()
	c.batchLive = live
	c.batchWeights = c.computeWeights(live)
	payload := encodeStep(c.batch, ranks, c.batchWeights)
	for _, p := range live {
		if err := c.send(p, msgStep, payload); err != nil {
			c.cfg.Logf("dist: batch %d: announcing to worker %d: %v", c.batch, p.rank, err)
		}
	}
}

// drainJoiners admits every queued joiner connection. Runs before the live
// freeze, so a successful joiner participates in the batch about to start.
func (c *Coordinator) drainJoiners() {
	c.joinMu.Lock()
	pending := c.joiners
	c.joiners = nil
	c.joinMu.Unlock()
	for _, conn := range pending {
		if err := c.admitJoiner(conn); err != nil {
			c.cfg.Logf("dist: joiner rejected: %v", err)
		}
	}
}

// admitJoiner hands one new connection the replica blueprint with the
// catch-up count, the exchange
// sequence to adopt, and the digest its replay must reproduce, then waits
// for it to report ready. The joiner replays all completed batches before
// answering, so a msgSetupOK means its replica state is bit-identical to
// every incumbent's.
func (c *Coordinator) admitJoiner(conn net.Conn) error {
	if !c.setup {
		conn.Close()
		return fmt.Errorf("dist: joiner before setup")
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		conn.Close()
		return fmt.Errorf("dist: coordinator closed")
	}
	rank := c.nextRank
	c.nextRank++
	p := &peer{rank: rank, conn: conn, cost: cluster.NewCostModel(0), lastHeard: time.Now()}
	c.peers = append(c.peers, p)
	c.mu.Unlock()
	payload, err := encodeSetup(rank, c.cfg.MinRows, c.bpOpts, c.bpSQL, c.bpDB, c.bpStreamed, c.completed, c.seq, c.lastDigest)
	if err != nil {
		c.markDead(p, err)
		return err
	}
	if err := c.send(p, msgSetup, payload); err != nil {
		return fmt.Errorf("dist: joiner rank %d setup: %w", rank, err)
	}
	typ, pl, err := c.recv(p, c.cfg.SetupDeadline)
	if err != nil {
		err = fmt.Errorf("dist: joiner rank %d setup: %w", rank, err)
		c.markDead(p, err)
		return err
	}
	switch typ {
	case msgSetupOK:
		c.cfg.Logf("dist: worker %d joined at batch %d (replayed %d)", rank, c.batch, c.completed)
		return nil
	case msgError:
		err := fmt.Errorf("dist: joiner rank %d setup failed: %s", rank, pl)
		c.markDead(p, err)
		return err
	default:
		err := fmt.Errorf("dist: joiner rank %d: unexpected frame type %d during setup", rank, typ)
		c.markDead(p, err)
		return err
	}
}

// heartbeat pings workers that have been silent past the interval. Runs only
// between batches (mid-batch silence is covered by span deadlines).
func (c *Coordinator) heartbeat() {
	c.mu.Lock()
	peers := append([]*peer(nil), c.peers...)
	c.mu.Unlock()
	for _, p := range peers {
		if p.dead || time.Since(p.lastHeard) < c.cfg.HeartbeatInterval {
			continue
		}
		if err := c.send(p, msgPing, nil); err != nil {
			continue
		}
		c.expect(p, msgPong, "heartbeat")
	}
}

// computeWeights freezes the batch's span-weight vector: the coordinator at
// weightScale, each live worker at the cost-estimate ratio. Mean per-row
// nanos over every op class is the slowness signal — classes a pair never
// exercised contribute identical cold-start priors to both sides, so they
// pull the ratio toward 1 rather than injecting noise.
func (c *Coordinator) computeWeights(live []*peer) []int {
	ws := make([]int, len(live)+1)
	ws[0] = weightScale
	self := avgPerRowNs(c.selfCost)
	for i, p := range live {
		w := weightScale
		if pa := avgPerRowNs(p.cost); pa > 0 && self > 0 {
			w = int(math.Round(weightScale * self / pa))
		}
		if w < 1 {
			w = 1
		}
		if w > weightMax {
			w = weightMax
		}
		ws[i+1] = w
	}
	return ws
}

// avgPerRowNs is the mean per-row EWMA estimate across all operator classes.
func avgPerRowNs(m *cluster.CostModel) float64 {
	snap := m.Snapshot()
	if len(snap) == 0 {
		return 0
	}
	var sum float64
	for _, v := range snap {
		sum += v
	}
	return sum / float64(len(snap))
}

// finishBatch collects each live worker's msgBatchDone and compares digests.
// A diverging worker is expelled: its replica can no longer be trusted to
// compute spans, and every later batch it touched would be corrupt.
func (c *Coordinator) finishBatch(u *core.Update) {
	var want uint64
	if u != nil {
		dg, err := core.ResultDigest(u.Result, u.Estimates)
		if err != nil {
			c.cfg.Logf("dist: batch %d: local digest: %v", c.batch, err)
			return
		}
		want = dg
	}
	for _, p := range c.batchLive {
		if p.dead {
			continue
		}
		pl, ok := c.expect(p, msgBatchDone, "batch done")
		if !ok {
			continue
		}
		batch, dg, err := decodeBatchDone(pl)
		if err != nil || batch != c.batch {
			c.markDead(p, fmt.Errorf("dist: worker %d: bad batch-done (batch %d, want %d): %v", p.rank, batch, c.batch, err))
			continue
		}
		if dg != want {
			c.markDead(p, fmt.Errorf("dist: worker %d diverged on batch %d: digest %#x, want %#x", p.rank, c.batch, dg, want))
		}
	}
	c.completed = c.batch
	c.lastDigest = want
}

// Exchange implements core.Exchanger for the coordinator side of a site.
// See the package comment for the failure model.
func (c *Coordinator) Exchange(class cluster.OpClass, n int, compute func(lo, hi int) ([]byte, error), merge func(lo, hi int, payload []byte) error) error {
	seq := c.seq
	c.seq++
	parts := c.batchLive // frozen; may contain peers that died mid-batch
	var spans [][2]int
	if len(c.batchWeights) == len(parts)+1 {
		spans = weightedSpans(n, c.batchWeights)
	} else {
		spans = assignSpans(n, len(parts)+1)
	}
	payloads := make([][]byte, len(spans))

	// Own span first: the workers compute theirs concurrently.
	t0 := time.Now()
	own, err := compute(spans[0][0], spans[0][1])
	if err != nil {
		return err
	}
	c.selfCost.Observe(class, spans[0][1]-spans[0][0], time.Since(t0), 1)
	payloads[0] = own

	// Collect worker spans in rank order; a dead worker's span is
	// re-dispatched to a survivor or computed locally.
	for i, w := range parts {
		lo, hi := spans[i+1][0], spans[i+1][1]
		if pl, nanos, ok := c.awaitSpan(w, seq, lo, hi); ok {
			payloads[i+1] = pl
			w.cost.Observe(class, hi-lo, time.Duration(nanos), 1)
			continue
		}
		pl, err := c.redispatch(parts, spans, i, seq, class, compute)
		if err != nil {
			return err
		}
		payloads[i+1] = pl
	}

	// Merge in ascending span order. A payload the site rejects means the
	// worker that produced it is unsound: expel it and recompute locally
	// (decoders validate before mutating, so the re-merge is clean).
	for i := range spans {
		lo, hi := spans[i][0], spans[i][1]
		if err := merge(lo, hi, payloads[i]); err != nil {
			if i == 0 {
				return err // our own payload: a local bug, not a peer failure
			}
			c.markDead(parts[i-1], fmt.Errorf("dist: worker %d sent unmergeable span: %w", parts[i-1].rank, err))
			pl, cerr := compute(lo, hi)
			if cerr != nil {
				return cerr
			}
			payloads[i] = pl
			if err := merge(lo, hi, pl); err != nil {
				return err
			}
		}
	}

	// Broadcast the complete merged site so every surviving replica applies
	// the identical bytes.
	mp := encodeMerged(seq, spans, payloads, c.bpOpts.WireCompression)
	for _, w := range parts {
		if !w.dead {
			if err := c.send(w, msgMerged, mp); err != nil {
				c.cfg.Logf("dist: seq %d: merged broadcast to worker %d: %v", seq, w.rank, err)
			}
		}
	}
	return nil
}

// redispatch recovers the dead worker deadIdx's span: first over the wire to
// a survivor (round-robin from the dead rank), falling back to local
// compute. Survivors whose own span is still in flight are drained first —
// on synchronous in-memory pipes, writing a compute request to a worker that
// is itself blocked writing its span would deadlock.
func (c *Coordinator) redispatch(parts []*peer, spans [][2]int, deadIdx int, seq uint64, class cluster.OpClass, compute func(lo, hi int) ([]byte, error)) ([]byte, error) {
	lo, hi := spans[deadIdx+1][0], spans[deadIdx+1][1]
	c.redispatched++
	if hi > lo { // empty spans are not worth a round-trip
		for off := 1; off < len(parts); off++ {
			j := (deadIdx + off) % len(parts)
			s := parts[j]
			if s.dead {
				continue
			}
			if j > deadIdx {
				ownLo, ownHi := spans[j+1][0], spans[j+1][1]
				pl, nanos, ok := c.awaitSpan(s, seq, ownLo, ownHi)
				if !ok {
					continue // died while draining
				}
				s.pending = append(s.pending, spanMsg{seq: seq, lo: ownLo, hi: ownHi, nanos: nanos, payload: pl})
			}
			if err := c.send(s, msgCompute, encodeCompute(seq, lo, hi)); err != nil {
				continue
			}
			if pl, nanos, ok := c.awaitSpan(s, seq, lo, hi); ok {
				c.redispatchedRemote++
				s.cost.Observe(class, hi-lo, time.Duration(nanos), 1)
				c.cfg.Logf("dist: seq %d: span [%d,%d) of dead worker %d recomputed by worker %d",
					seq, lo, hi, parts[deadIdx].rank, s.rank)
				return pl, nil
			}
		}
	}
	return compute(lo, hi)
}

// awaitSpan returns the (seq, lo, hi) span payload and its reported compute
// nanos from w: from the pending stash if already read, else from the wire
// with deadline escalation. A false return means w is now dead.
func (c *Coordinator) awaitSpan(w *peer, seq uint64, lo, hi int) ([]byte, uint64, bool) {
	for i, sm := range w.pending {
		if sm.seq == seq && sm.lo == lo && sm.hi == hi {
			w.pending = append(w.pending[:i], w.pending[i+1:]...)
			return sm.payload, sm.nanos, true
		}
	}
	if w.dead {
		return nil, 0, false
	}
	deadline := c.cfg.SpanDeadline
	for attempt := 0; ; attempt++ {
		typ, pl, err := c.recv(w, deadline)
		if err != nil {
			if isTimeout(err) && attempt < c.cfg.Retries {
				deadline *= 2 // exponential escalation before declaring death
				continue
			}
			c.markDead(w, err)
			return nil, 0, false
		}
		switch typ {
		case msgSpan:
			sm, err := decodeSpan(pl)
			if err != nil || sm.seq != seq {
				c.markDead(w, fmt.Errorf("dist: worker %d: bad span frame (seq %d, want %d): %v", w.rank, sm.seq, seq, err))
				return nil, 0, false
			}
			if sm.lo == lo && sm.hi == hi {
				return sm.payload, sm.nanos, true
			}
			// Its own span arriving while we await a re-dispatched one
			// (or vice versa): stash for the other collection turn.
			w.pending = append(w.pending, sm)
		case msgPong:
			// Stale heartbeat reply; the frame already refreshed lastHeard.
		case msgError:
			c.markDead(w, fmt.Errorf("dist: worker %d failed: %s", w.rank, pl))
			return nil, 0, false
		default:
			c.markDead(w, fmt.Errorf("dist: worker %d: unexpected frame type %d mid-site", w.rank, typ))
			return nil, 0, false
		}
	}
}

// expect reads frames from w until one of the wanted type arrives, tolerating
// stale pongs, with the same escalation-then-death policy as awaitSpan.
func (c *Coordinator) expect(w *peer, want byte, what string) ([]byte, bool) {
	deadline := c.cfg.SpanDeadline
	for attempt := 0; ; attempt++ {
		typ, pl, err := c.recv(w, deadline)
		if err != nil {
			if isTimeout(err) && attempt < c.cfg.Retries {
				deadline *= 2
				continue
			}
			c.markDead(w, fmt.Errorf("dist: worker %d: awaiting %s: %w", w.rank, what, err))
			return nil, false
		}
		switch typ {
		case want:
			return pl, true
		case msgPong:
		case msgError:
			c.markDead(w, fmt.Errorf("dist: worker %d failed: %s", w.rank, pl))
			return nil, false
		default:
			c.markDead(w, fmt.Errorf("dist: worker %d: unexpected frame type %d awaiting %s", w.rank, typ, what))
			return nil, false
		}
	}
}

// MinRows implements core.Exchanger.
func (c *Coordinator) MinRows() int { return c.cfg.MinRows }

// WireStats implements core.Exchanger: cumulative measured wire traffic.
// Worker→coordinator frames are shuffle (collection), coordinator→worker
// frames are broadcast (fan-out); their sum is exactly the bytes on the wire.
func (c *Coordinator) WireStats() (shuffle, broadcast int64) {
	return c.metrics.WireShuffleBytes(), c.metrics.WireBroadcastBytes()
}

// LiveWorkers reports how many workers are still considered alive.
func (c *Coordinator) LiveWorkers() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, p := range c.peers {
		if !p.dead {
			n++
		}
	}
	return n
}

// Redispatched reports how many spans of dead workers were recovered, and how
// many of those a surviving worker computed (the rest fell back to the
// coordinator).
func (c *Coordinator) Redispatched() (total, remote int) {
	return c.redispatched, c.redispatchedRemote
}

// WorkerErrors returns the death cause of each dead worker, keyed by rank.
func (c *Coordinator) WorkerErrors() map[int]error {
	c.mu.Lock()
	defer c.mu.Unlock()
	m := make(map[int]error)
	for _, p := range c.peers {
		if p.dead {
			m[p.rank] = p.err
		}
	}
	return m
}

// Close sends an orderly shutdown to live workers and closes every
// connection. Safe to call more than once and concurrently with an in-flight
// batch (the peer set and closed flag are snapshotted under the lock; the
// frame write itself is a single conn.Write, which net.Conn allows
// concurrently). The shutdown frame is a courtesy — workers treat a closed
// connection between batches as orderly too — so it gets a short deadline
// rather than the full silent-worker patience: a peer stuck mid-write (e.g.
// an unread setup reply on a synchronous pipe) must not stall Close.
func (c *Coordinator) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	peers := make([]*peer, 0, len(c.peers))
	deadAt := make([]bool, 0, len(c.peers))
	for _, p := range c.peers {
		peers = append(peers, p)
		deadAt = append(deadAt, p.dead)
	}
	c.mu.Unlock()
	for i, p := range peers {
		if !deadAt[i] {
			p.conn.SetWriteDeadline(time.Now().Add(250 * time.Millisecond))
			if wire.WriteFrame(p.conn, msgShutdown, nil) == nil {
				c.metrics.RecordWireBroadcast(wire.FrameOverhead)
			}
		}
		p.conn.Close()
	}
	c.joinMu.Lock()
	pending := c.joiners
	c.joiners = nil
	c.joinMu.Unlock()
	for _, conn := range pending {
		conn.Close()
	}
	return nil
}

func (c *Coordinator) markDead(p *peer, err error) {
	c.mu.Lock()
	if p.dead {
		c.mu.Unlock()
		return
	}
	p.dead = true
	p.err = err
	c.mu.Unlock()
	p.conn.Close()
	c.cfg.Logf("dist: worker %d declared dead: %v", p.rank, err)
}

// send writes one frame to p, recording its bytes as broadcast traffic. A
// write failure kills the peer. The write deadline is cleared after a
// successful frame: a stale deadline left armed would poison later writes
// issued without one (Close's courtesy shutdown, external conn reuse).
func (c *Coordinator) send(p *peer, typ byte, payload []byte) error {
	if p.dead {
		return fmt.Errorf("dist: worker %d is dead", p.rank)
	}
	p.conn.SetWriteDeadline(time.Now().Add(c.cfg.maxWait()))
	if err := wire.WriteFrame(p.conn, typ, payload); err != nil {
		c.markDead(p, err)
		return err
	}
	p.conn.SetWriteDeadline(time.Time{})
	c.metrics.RecordWireBroadcast(wire.FrameOverhead + len(payload))
	return nil
}

// recv reads one frame from p under the given deadline, recording its bytes
// as shuffle traffic. Timeouts are returned to the caller for escalation;
// they do not kill the peer here. The read deadline is cleared after a
// successful frame so a slow-but-alive peer's next frame is judged against a
// freshly-armed deadline, never a stale expired one.
func (c *Coordinator) recv(p *peer, deadline time.Duration) (byte, []byte, error) {
	if p.dead {
		return 0, nil, fmt.Errorf("dist: worker %d is dead", p.rank)
	}
	p.conn.SetReadDeadline(time.Now().Add(deadline))
	typ, pl, err := wire.ReadFrameReuse(p.conn, &p.rbuf)
	if err != nil {
		return 0, nil, err
	}
	p.conn.SetReadDeadline(time.Time{})
	p.lastHeard = time.Now()
	c.metrics.RecordWireShuffle(wire.FrameOverhead + len(pl))
	return typ, pl, nil
}

var _ core.Exchanger = (*Coordinator)(nil)
var _ core.Exchanger = (*workerSession)(nil)
