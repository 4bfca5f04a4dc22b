// Elastic-membership tests: mid-query worker join via catch-up replay,
// join/leave sweeps (the autoscaling extension of the kill sweep),
// partitioned table shipping, cost-driven span weights, and the dist-protocol
// hygiene fixes (deadline clearing, Close under concurrency).
package dist

import (
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"iolap/internal/cluster"
	"iolap/internal/core"
	"iolap/internal/exec"
)

// joinWorker spins up a fresh pipe-backed worker and queues it for admission
// at the coordinator's next batch boundary. wrap, when non-nil, intercepts
// the coordinator-side conn (fault injection on the joiner's link).
func joinWorker(coord *Coordinator, wopts WorkerOptions, wrap func(net.Conn) net.Conn) {
	cConn, sConn := net.Pipe()
	go func() {
		ServeConn(sConn, wopts)
		sConn.Close()
	}()
	if wrap != nil {
		cConn2 := wrap(cConn)
		coord.Admit(cConn2)
		return
	}
	coord.Admit(cConn)
}

// batchHook runs fn after the given number of completed batches.
type batchHook struct {
	after int
	fn    func(coord *Coordinator)
}

// runDistHooks is runDist with membership events injected between batches.
func runDistHooks(t testing.TB, conns []net.Conn, db *exec.DB, query string, opts core.Options, cfg Config, hooks []batchHook) ([]summary, *Coordinator) {
	t.Helper()
	coord := NewCoordinator(conns, cfg)
	defer coord.Close()
	if err := coord.Setup(db, streamedTables, query, opts); err != nil {
		t.Fatalf("setup: %v", err)
	}
	opts.Exchange = coord
	eng := buildEngine(t, db, query, opts)
	defer eng.Close()
	var out []summary
	done := 0
	for !eng.Done() {
		u, err := coord.Step(eng)
		if err != nil {
			t.Fatalf("dist step: %v", err)
		}
		out = append(out, summarize(t, u))
		done++
		for _, h := range hooks {
			if h.after == done {
				h.fn(coord)
			}
		}
	}
	return out, coord
}

// TestWorkerJoinsMidQuery is the basic elastic case: a worker that connects
// after two batches replays them from the blueprint, proves convergence, and
// serves the rest of the run — with results bit-identical to the local
// oracle and to the never-joined run by construction.
func TestWorkerJoinsMidQuery(t *testing.T) {
	for _, q := range distQueries {
		q := q
		t.Run(q.name, func(t *testing.T) {
			local := runLocal(t, testDB(120, 11, 0), q.query, baseOpts())
			hooks := []batchHook{{after: 2, fn: func(c *Coordinator) { joinWorker(c, WorkerOptions{}, nil) }}}
			conns, stop := StartLoopback(1, WorkerOptions{})
			defer stop()
			got, coord := runDistHooks(t, conns, testDB(120, 11, 0), q.query, baseOpts(), forceDist(), hooks)
			assertSameRun(t, q.name+"/join", got, local)
			if lw := coord.LiveWorkers(); lw != 2 {
				t.Fatalf("live workers after join: %d, want 2", lw)
			}
			if errs := coord.WorkerErrors(); len(errs) != 0 {
				t.Fatalf("worker errors after clean join: %v", errs)
			}
		})
	}
}

// TestJoinLeaveSweep is the autoscaling acceptance sweep: join mid-run, kill
// mid-run, and join+kill, at initial worker counts 2, 4 and 8 — every
// combination bit-identical to the local Workers=1 oracle.
func TestJoinLeaveSweep(t *testing.T) {
	query := distQueries[1].query // join_dim_group: exercises row-span shipping
	local := runLocal(t, testDB(120, 11, 0), query, baseOpts())
	scenarios := []string{"join", "kill", "join_kill"}
	for _, workers := range []int{2, 4, 8} {
		for _, sc := range scenarios {
			name := sc + "_w" + itoa(workers)
			conns, stop := StartLoopback(workers, WorkerOptions{})
			wire := make([]net.Conn, workers)
			copy(wire, conns)
			kill := sc == "kill" || sc == "join_kill"
			if kill {
				fc := NewFaultConn(conns[0])
				fc.KillOnFault(true)
				fc.FailReadAt(12)
				wire[0] = fc
			}
			var hooks []batchHook
			if sc == "join" || sc == "join_kill" {
				hooks = append(hooks, batchHook{after: 2, fn: func(c *Coordinator) { joinWorker(c, WorkerOptions{}, nil) }})
			}
			cfg := forceDist()
			cfg.SpanDeadline = 100 * time.Millisecond
			cfg.Retries = 1
			got, coord := runDistHooks(t, wire, testDB(120, 11, 0), query, baseOpts(), cfg, hooks)
			assertSameRun(t, name, got, local)
			if kill && coord.LiveWorkers() >= workers+len(hooks) {
				t.Errorf("%s: fault never killed a worker", name)
			}
			stop()
		}
	}
}

// TestJoinerDiesAndRejoins covers the satellite case: a joiner whose link
// dies immediately after connecting must be rejected cleanly (logged, never
// in a live set), and a later healthy joiner must still be admitted — with
// results bit-identical throughout.
func TestJoinerDiesAndRejoins(t *testing.T) {
	query := distQueries[1].query
	local := runLocal(t, testDB(120, 11, 0), query, baseOpts())
	hooks := []batchHook{
		{after: 1, fn: func(c *Coordinator) {
			joinWorker(c, WorkerOptions{}, func(conn net.Conn) net.Conn {
				fc := NewFaultConn(conn)
				fc.KillOnFault(true)
				fc.FailReadAt(1) // dies before its setup reply is read
				return fc
			})
		}},
		{after: 3, fn: func(c *Coordinator) { joinWorker(c, WorkerOptions{}, nil) }},
	}
	conns, stop := StartLoopback(2, WorkerOptions{})
	defer stop()
	cfg := forceDist()
	cfg.SpanDeadline = 100 * time.Millisecond
	cfg.Retries = 1
	got, coord := runDistHooks(t, conns, testDB(120, 11, 0), query, baseOpts(), cfg, hooks)
	assertSameRun(t, "die_rejoin", got, local)
	// 2 initial + 1 rejoined survivor; the dead joiner must carry an error.
	if lw := coord.LiveWorkers(); lw != 3 {
		t.Fatalf("live workers: %d, want 3", lw)
	}
	if err := coord.WorkerErrors()[3]; err == nil {
		t.Fatal("dead joiner (rank 3) has no recorded error")
	}
}

// TestSlowButAliveWorkerSurvives: a worker whose frames arrive late — but
// inside the escalated deadline budget — must never be declared dead, and
// the run must stay bit-identical. This is the regression guard for the
// sticky-deadline fix: every await arms a fresh deadline, so one slow frame
// cannot poison the next read.
func TestSlowButAliveWorkerSurvives(t *testing.T) {
	query := distQueries[0].query
	opts := baseOpts()
	opts.Batches = 3
	local := runLocal(t, testDB(60, 2, 0), query, opts)

	cConn, sConn := net.Pipe()
	slow := NewFaultConn(sConn)
	// Every frame after setup-ok arrives 45ms late: past the first two
	// deadline attempts (expiring at 10ms and 30ms) and safely inside the
	// third (30..70ms), so no deadline can expire mid-frame.
	slow.DelayWritesFrom(2, 45*time.Millisecond)
	go func() {
		ServeConn(slow, WorkerOptions{})
		sConn.Close()
	}()
	cfg := forceDist()
	cfg.SpanDeadline = 10 * time.Millisecond
	cfg.Retries = 3 // patience 10+20+40+80 = 150ms per frame
	got, coord := runDist(t, []net.Conn{cConn}, testDB(60, 2, 0), query, opts, cfg)
	assertSameRun(t, "slow_alive", got, local)
	if lw := coord.LiveWorkers(); lw != 1 {
		t.Fatalf("slow-but-alive worker was expelled: %v", coord.WorkerErrors())
	}
}

// deadlineConn records SetReadDeadline/SetWriteDeadline calls, remembering
// whether the last call on each side was a clear (zero time).
type deadlineConn struct {
	net.Conn
	mu                  sync.Mutex
	readSets, writeSets int
	lastRead, lastWrite time.Time
}

func (d *deadlineConn) SetReadDeadline(t time.Time) error {
	d.mu.Lock()
	if !t.IsZero() {
		d.readSets++
	}
	d.lastRead = t
	d.mu.Unlock()
	return d.Conn.SetReadDeadline(t)
}

func (d *deadlineConn) SetWriteDeadline(t time.Time) error {
	d.mu.Lock()
	if !t.IsZero() {
		d.writeSets++
	}
	d.lastWrite = t
	d.mu.Unlock()
	return d.Conn.SetWriteDeadline(t)
}

func (d *deadlineConn) state() (readSets, writeSets int, readArmed, writeArmed bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.readSets, d.writeSets, !d.lastRead.IsZero(), !d.lastWrite.IsZero()
}

// TestDeadlinesClearedAfterFrames is the direct satellite-1 regression: after
// a clean run, neither side of the connection may be left with an armed
// read or write deadline — every successful frame clears the deadline it set.
func TestDeadlinesClearedAfterFrames(t *testing.T) {
	query := distQueries[0].query
	opts := baseOpts()
	opts.Batches = 3
	local := runLocal(t, testDB(60, 2, 0), query, opts)

	cConn, sConn := net.Pipe()
	cd := &deadlineConn{Conn: cConn}
	sd := &deadlineConn{Conn: sConn}
	workerDone := make(chan struct{})
	go func() {
		defer close(workerDone)
		ServeConn(sd, WorkerOptions{})
		sConn.Close()
	}()

	coord := NewCoordinator([]net.Conn{cd}, forceDist())
	if err := coord.Setup(testDB(60, 2, 0), streamedTables, query, opts); err != nil {
		t.Fatalf("setup: %v", err)
	}
	ropts := opts
	ropts.Exchange = coord
	eng := buildEngine(t, testDB(60, 2, 0), query, ropts)
	defer eng.Close()
	var got []summary
	for !eng.Done() {
		u, err := coord.Step(eng)
		if err != nil {
			t.Fatalf("step: %v", err)
		}
		got = append(got, summarize(t, u))
	}
	assertSameRun(t, "deadline_conn", got, local)

	// Before Close: the coordinator's conn must be fully disarmed.
	rs, ws, ra, wa := cd.state()
	if rs == 0 || ws == 0 {
		t.Fatal("deadline wrapper saw no deadline activity; test is vacuous")
	}
	if ra || wa {
		t.Fatalf("coordinator left deadlines armed after last frame (read=%v write=%v)", ra, wa)
	}
	coord.Close()
	<-workerDone
	// The worker side must end disarmed too (its last read was msgShutdown,
	// its last write the final batch-done — both cleared after success).
	if _, _, ra, wa := sd.state(); ra || wa {
		t.Fatalf("worker left deadlines armed after session end (read=%v write=%v)", ra, wa)
	}
}

// TestCloseConcurrentWithBatches hammers satellite 2: Close racing an
// in-flight batch (whose heartbeats call markDead on failure), a concurrent
// duplicate Close, and a concurrent Admit must be data-race-free and leave
// Close idempotent. Run with -race to get the actual guarantee.
func TestCloseConcurrentWithBatches(t *testing.T) {
	query := distQueries[0].query
	for i := 0; i < 6; i++ {
		conns, stop := StartLoopback(2, WorkerOptions{})
		cfg := forceDist()
		cfg.HeartbeatInterval = time.Nanosecond // ping before every batch
		cfg.SpanDeadline = 20 * time.Millisecond
		cfg.Retries = 1
		coord := NewCoordinator(conns, cfg)
		if err := coord.Setup(testDB(60, 2, 0), streamedTables, query, baseOpts()); err != nil {
			t.Fatalf("setup: %v", err)
		}
		opts := baseOpts()
		opts.Exchange = coord
		eng := buildEngine(t, testDB(60, 2, 0), query, opts)
		done := make(chan struct{})
		go func() {
			defer close(done)
			for !eng.Done() {
				if _, err := coord.Step(eng); err != nil {
					return // a Close mid-batch surfaces as a transport error
				}
			}
		}()
		joinWorker(coord, WorkerOptions{}, nil) // Admit racing Close
		time.Sleep(time.Duration(i) * 2 * time.Millisecond)
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { defer wg.Done(); coord.Close() }()
		go func() { defer wg.Done(); coord.Close() }()
		wg.Wait()
		<-done
		if err := coord.Close(); err != nil {
			t.Fatalf("repeat close: %v", err)
		}
		eng.Close()
		stop()
	}
}

// TestCostWeightsAdaptAndWeightedSpans pins the span-sizing mechanics: a
// worker whose observed per-row cost is several times the coordinator's gets
// a proportionally smaller clamped weight, weighted spans shrink its share,
// and equal weights reduce weightedSpans exactly to assignSpans.
func TestCostWeightsAdaptAndWeightedSpans(t *testing.T) {
	c := NewCoordinator(nil, Config{})
	p := &peer{rank: 1, cost: cluster.NewCostModel(0)}
	for i := 0; i < 60; i++ {
		c.selfCost.Observe(cluster.CostJoinProbe, 1000, time.Millisecond, 1)
		p.cost.Observe(cluster.CostJoinProbe, 1000, 8*time.Millisecond, 1)
	}
	ws := c.computeWeights([]*peer{p})
	if ws[0] != weightScale {
		t.Fatalf("coordinator weight %d, want %d", ws[0], weightScale)
	}
	if ws[1] >= weightScale {
		t.Fatalf("8x-slower worker weight %d, want < %d", ws[1], weightScale)
	}
	if ws[1] < 1 || ws[1] > weightMax {
		t.Fatalf("weight %d outside [1, %d]", ws[1], weightMax)
	}
	spans := weightedSpans(1000, ws)
	if own, theirs := spans[0][1]-spans[0][0], spans[1][1]-spans[1][0]; theirs >= own {
		t.Fatalf("slow worker span %d not smaller than coordinator span %d", theirs, own)
	}
	// Coverage invariant at awkward sizes and weights.
	for _, n := range []int{0, 1, 7, 97, 1000} {
		for _, w := range [][]int{{16, 5}, {1, 64, 16}, {16, 16, 16}, {0, 0}} {
			spans := weightedSpans(n, w)
			prev := 0
			for _, sp := range spans {
				if sp[0] != prev || sp[1] < sp[0] {
					t.Fatalf("n=%d w=%v: bad span %v after %d", n, w, sp, prev)
				}
				prev = sp[1]
			}
			if prev != n {
				t.Fatalf("n=%d w=%v: spans cover [0,%d)", n, w, prev)
			}
		}
		// Equal weights must reduce exactly to assignSpans — the proof that
		// enabling span sizing changes nothing until costs actually diverge.
		if got, want := weightedSpans(n, []int{16, 16, 16}), assignSpans(n, 3); !reflect.DeepEqual(got, want) {
			t.Fatalf("n=%d: equal weights %v != assignSpans %v", n, got, want)
		}
	}
}
