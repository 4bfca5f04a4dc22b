// The worker side: one workerSession per coordinator connection. The session
// decodes the Setup blueprint, builds a full engine replica (catalog →
// planner → engine, exactly the construction path the root package uses), and
// then steps it in lockstep with the coordinator, serving as the engine's
// core.Exchanger: at every distributed site it computes its own span, ships
// it, and applies the merged bytes the coordinator broadcasts.
package dist

import (
	"errors"
	"fmt"
	"io"
	"net"
	"time"

	"iolap/internal/agg"
	"iolap/internal/cluster"
	"iolap/internal/core"
	"iolap/internal/exec"
	"iolap/internal/expr"
	"iolap/internal/sql"
	"iolap/internal/wire"
)

// errShutdown signals an orderly coordinator-requested teardown.
var errShutdown = errors.New("dist: shutdown requested")

// WorkerOptions configures a worker process.
type WorkerOptions struct {
	// Workers bounds the replica engine's local pool parallelism
	// (default GOMAXPROCS). Scheduling only — never results.
	Workers int
	// IdleTimeout is how long the session waits for the next coordinator
	// frame before giving up (default 5 minutes). It doubles as the
	// patience for mid-site waits, where the coordinator may legitimately
	// be busy computing.
	IdleTimeout time.Duration
	// Logf, when set, receives diagnostics (default: discard).
	Logf func(format string, args ...interface{})
}

func (o WorkerOptions) withDefaults() WorkerOptions {
	if o.IdleTimeout <= 0 {
		o.IdleTimeout = 5 * time.Minute
	}
	if o.Logf == nil {
		o.Logf = func(string, ...interface{}) {}
	}
	return o
}

// ListenAndServe runs a worker: it listens on addr and serves each inbound
// coordinator connection in its own goroutine. This is the body of
// `iolap -worker addr`. It returns only on listener failure.
func ListenAndServe(addr string, opts WorkerOptions) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return Serve(l, opts)
}

// Serve accepts coordinator connections from l until Accept fails.
func Serve(l net.Listener, opts WorkerOptions) error {
	opts = opts.withDefaults()
	for {
		conn, err := l.Accept()
		if err != nil {
			return err
		}
		go func() {
			if err := ServeConn(conn, opts); err != nil {
				opts.Logf("dist: worker session ended: %v", err)
			}
			conn.Close()
		}()
	}
}

// ServeConn runs one coordinator session to completion on conn. It returns
// nil on orderly shutdown (msgShutdown or the coordinator hanging up between
// batches) and the fatal error otherwise.
func ServeConn(conn net.Conn, opts WorkerOptions) error {
	w := &workerSession{conn: conn, opts: opts.withDefaults()}
	err := w.run()
	if errors.Is(err, errShutdown) {
		return nil
	}
	return err
}

// workerSession is one coordinator connection's state. Everything runs on the
// serving goroutine: the engine's Exchange calls re-enter the session's frame
// loop, so no locking is needed.
type workerSession struct {
	conn    net.Conn
	opts    WorkerOptions
	rank    int
	minRows int
	live    []int  // frozen live ranks of the current batch
	weights []int  // frozen span weights ([0] coordinator, [i+1] live[i])
	seq     uint64 // exchange sequence number, lockstep with the coordinator
	// selfMode runs exchanges without the coordinator: compute the whole
	// site, merge it, no frames. Used during a joiner's catch-up replay —
	// merges are span-decomposition insensitive, so one [0, n) span leaves
	// the replica state bit-identical to the original distributed run.
	selfMode bool
	// compress mirrors the coordinator's WireCompression option (shipped in
	// Setup): span payloads above the threshold go out flate-compressed.
	compress bool
	// rbuf is the session's reusable frame-read buffer; read's payloads
	// alias it and are fully decoded (with copying readers) before the next
	// read.
	rbuf []byte

	wireShuffle   int64 // bytes sent toward the coordinator
	wireBroadcast int64 // bytes received from the coordinator
}

func (w *workerSession) run() error {
	typ, pl, err := w.read()
	if err != nil {
		return fmt.Errorf("dist: worker awaiting setup: %w", err)
	}
	if typ != msgSetup {
		return fmt.Errorf("dist: worker expected setup, got frame type %d", typ)
	}
	s, err := decodeSetup(pl)
	if err != nil {
		w.sendError(err)
		return err
	}
	eng, err := buildReplica(s, w.opts, w)
	if err != nil {
		w.sendError(err)
		return err
	}
	defer eng.Close()
	w.rank, w.minRows = s.rank, s.minRows
	w.compress = s.opts.WireCompression
	if s.catchUp > 0 {
		// Mid-query joiner: replay every completed batch against the full
		// tables we were shipped, then prove convergence against the
		// coordinator's last digest before reporting ready. The replay runs
		// before msgSetupOK, so admission cost lands on the joiner, not on
		// the incumbents' batch cadence.
		w.selfMode = true
		var lastDg uint64
		for b := 0; b < s.catchUp; b++ {
			u, err := eng.Step()
			if err != nil {
				w.sendError(fmt.Errorf("dist: catch-up replay batch %d: %w", b+1, err))
				return err
			}
			lastDg = 0
			if u != nil {
				if lastDg, err = core.ResultDigest(u.Result, u.Estimates); err != nil {
					w.sendError(err)
					return err
				}
			}
		}
		w.selfMode = false
		if lastDg != s.lastDigest {
			err := fmt.Errorf("dist: catch-up replay diverged after %d batches: digest %#x, want %#x", s.catchUp, lastDg, s.lastDigest)
			w.sendError(err)
			return err
		}
		w.seq = s.startSeq
		w.opts.Logf("dist: worker rank %d caught up (%d batches replayed)", w.rank, s.catchUp)
	}
	if err := w.send(msgSetupOK, nil); err != nil {
		return err
	}
	w.opts.Logf("dist: worker rank %d ready (%d tables, %d batches)", w.rank, len(s.tables), s.opts.Batches)

	for {
		typ, pl, err := w.read()
		if err != nil {
			// A hangup between batches is an orderly end: the coordinator
			// closes connections on teardown.
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrClosedPipe) || errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		switch typ {
		case msgPing:
			if err := w.send(msgPong, nil); err != nil {
				return err
			}
		case msgShutdown:
			return errShutdown
		case msgStep:
			batch, live, weights, err := decodeStep(pl)
			if err != nil {
				return err
			}
			w.live, w.weights = live, weights
			u, err := eng.Step()
			if err != nil {
				if errors.Is(err, errShutdown) {
					return errShutdown
				}
				w.sendError(err)
				return err
			}
			var dg uint64
			if u != nil {
				if dg, err = core.ResultDigest(u.Result, u.Estimates); err != nil {
					w.sendError(err)
					return err
				}
			}
			if err := w.send(msgBatchDone, encodeBatchDone(batch, dg)); err != nil {
				return err
			}
		default:
			return fmt.Errorf("dist: worker got unexpected frame type %d between batches", typ)
		}
	}
}

// buildReplica constructs the worker's engine from the Setup blueprint,
// following the same sql.PlanQuery → engine path the root package uses, so
// plan shape and operator numbering match the coordinator exactly.
// Scheduling-only options are chosen locally: replicas run memory-only (no
// spill budget) and size their own pools.
func buildReplica(s *setupMsg, wopts WorkerOptions, exch core.Exchanger) (*core.Engine, error) {
	db := exec.NewDB()
	streamed := make(map[string]bool, len(s.tables))
	for _, t := range s.tables {
		db.Put(t.name, t.rel)
		streamed[t.name] = t.streamed
	}
	// Fresh registries: queries using custom UDFs/UDAs cannot run
	// distributed (the planner errors here and Setup fails loudly).
	node, _, err := sql.PlanQuery(s.sqlText, sql.CatalogOf(db, streamed, ""), expr.NewRegistry(), agg.NewRegistry())
	if err != nil {
		return nil, fmt.Errorf("dist: worker plan: %w", err)
	}
	opts := s.opts
	opts.Exchange = exch
	opts.Workers = wopts.Workers
	opts.ParThreshold = 0
	opts.StateBudgetBytes = 0
	opts.SpillFS = nil
	opts.SpillDir = ""
	return core.NewEngine(node, db, opts)
}

// Exchange implements core.Exchanger for the worker side of a site: compute
// this replica's span (derived from its position in the frozen live list and
// the batch's weight vector), ship it with its measured compute nanos, then serve
// compute requests (re-dispatched spans of dead peers) until the merged site
// arrives, and apply it. In selfMode (catch-up replay) the whole site is
// computed and merged locally with no frames.
func (w *workerSession) Exchange(class cluster.OpClass, n int, compute func(lo, hi int) ([]byte, error), merge func(lo, hi int, payload []byte) error) error {
	if w.selfMode {
		pl, err := compute(0, n)
		if err != nil {
			return err
		}
		return merge(0, n, pl)
	}
	seq := w.seq
	w.seq++
	p := len(w.live) + 1
	idx := -1
	for i, rk := range w.live {
		if rk == w.rank {
			idx = i + 1
			break
		}
	}
	if idx < 0 {
		return fmt.Errorf("dist: worker rank %d missing from live set %v", w.rank, w.live)
	}
	var spans [][2]int
	if len(w.weights) == p {
		spans = weightedSpans(n, w.weights)
	} else {
		spans = assignSpans(n, p)
	}
	lo, hi := spans[idx][0], spans[idx][1]
	t0 := time.Now()
	pl, err := compute(lo, hi)
	if err != nil {
		return err
	}
	nanos := uint64(time.Since(t0).Nanoseconds())
	// Empty spans still ship: the frame doubles as a liveness signal and
	// keeps the collection sequence identical on both ends.
	if err := w.send(msgSpan, encodeSpan(seq, lo, hi, nanos, pl, w.compress)); err != nil {
		return err
	}
	for {
		typ, fp, err := w.read()
		if err != nil {
			return err
		}
		switch typ {
		case msgPing:
			if err := w.send(msgPong, nil); err != nil {
				return err
			}
		case msgCompute:
			cseq, clo, chi, err := decodeCompute(fp)
			if err != nil {
				return err
			}
			if cseq != seq {
				return fmt.Errorf("dist: compute request for seq %d during seq %d", cseq, seq)
			}
			if err := checkSpan("compute request", clo, chi, n); err != nil {
				return err
			}
			ct0 := time.Now()
			cpl, err := compute(clo, chi)
			if err != nil {
				return err
			}
			if err := w.send(msgSpan, encodeSpan(seq, clo, chi, uint64(time.Since(ct0).Nanoseconds()), cpl, w.compress)); err != nil {
				return err
			}
		case msgMerged:
			mseq, msSpans, err := decodeMerged(fp)
			if err != nil {
				return err
			}
			if mseq != seq {
				return fmt.Errorf("dist: merged site for seq %d during seq %d", mseq, seq)
			}
			for _, sm := range msSpans {
				if err := checkSpan("merged", sm.lo, sm.hi, n); err != nil {
					return err
				}
				if err := merge(sm.lo, sm.hi, sm.payload); err != nil {
					return err
				}
			}
			return nil
		case msgShutdown:
			return errShutdown
		default:
			return fmt.Errorf("dist: worker got unexpected frame type %d mid-site", typ)
		}
	}
}

// checkSpan rejects coordinator-sent span bounds outside the site's n rows
// before compute or merge slice with them. The frame decoders cannot: only
// the site knows n.
func checkSpan(what string, lo, hi, n int) error {
	if lo < 0 || lo > hi || hi > n {
		return fmt.Errorf("dist: %s span [%d,%d) outside a site of %d", what, lo, hi, n)
	}
	return nil
}

// MinRows implements core.Exchanger.
func (w *workerSession) MinRows() int { return w.minRows }

// WireStats implements core.Exchanger: from the worker's perspective, bytes
// it sends toward the coordinator are shuffle (collection) and bytes it
// receives are broadcast (fan-out) — the same classification the coordinator
// applies to the same frames.
func (w *workerSession) WireStats() (shuffle, broadcast int64) {
	return w.wireShuffle, w.wireBroadcast
}

// read and send clear their deadline after a successful frame: a stale
// armed deadline would otherwise expire during long local compute (a span, a
// catch-up replay) and poison the connection for any later I/O issued
// without an explicit deadline of its own.
func (w *workerSession) read() (byte, []byte, error) {
	w.conn.SetReadDeadline(time.Now().Add(w.opts.IdleTimeout))
	typ, pl, err := wire.ReadFrameReuse(w.conn, &w.rbuf)
	if err != nil {
		return 0, nil, err
	}
	w.conn.SetReadDeadline(time.Time{})
	w.wireBroadcast += int64(wire.FrameOverhead + len(pl))
	return typ, pl, nil
}

func (w *workerSession) send(typ byte, payload []byte) error {
	w.conn.SetWriteDeadline(time.Now().Add(w.opts.IdleTimeout))
	if err := wire.WriteFrame(w.conn, typ, payload); err != nil {
		return err
	}
	w.conn.SetWriteDeadline(time.Time{})
	w.wireShuffle += int64(wire.FrameOverhead + len(payload))
	return nil
}

// sendError best-effort ships a fatal error to the coordinator so it can
// report the cause instead of a bare timeout.
func (w *workerSession) sendError(err error) {
	_ = w.send(msgError, []byte(err.Error()))
}
