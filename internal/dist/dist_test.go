package dist

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"sort"
	"strings"
	"testing"
	"time"

	"iolap/internal/agg"
	"iolap/internal/core"
	"iolap/internal/exec"
	"iolap/internal/expr"
	"iolap/internal/rel"
	"iolap/internal/sql"
	"iolap/internal/wire"
)

// ---------------------------------------------------------------------------
// Fixtures: the same synthetic sessions workload the core equivalence suites
// use, so "distributed equals local" is checked on exactly the shapes the
// engine's own bit-identity suites pin down.

func sessionsSchema() rel.Schema {
	return rel.Schema{
		{Name: "session_id", Type: rel.KString},
		{Name: "buffer_time", Type: rel.KFloat},
		{Name: "play_time", Type: rel.KFloat},
		{Name: "cdn", Type: rel.KString},
	}
}

func cdnsSchema() rel.Schema {
	return rel.Schema{
		{Name: "cdn", Type: rel.KString},
		{Name: "region", Type: rel.KString},
	}
}

// genSessions builds a deterministic synthetic sessions table. skew > 0
// biases that fraction of rows onto the "east" CDN (the skew fixture).
func genSessions(n int, seed int64, skew float64) *rel.Relation {
	rng := rand.New(rand.NewSource(seed))
	r := rel.NewRelation(sessionsSchema())
	cdns := []string{"east", "west", "eu"}
	for i := 0; i < n; i++ {
		bt := 10 + rng.ExpFloat64()*25
		pt := 30 + rng.Float64()*600
		cdn := cdns[rng.Intn(len(cdns))]
		if skew > 0 && rng.Float64() < skew {
			cdn = "east"
		}
		r.Append(
			rel.String("s"+itoa(i)),
			rel.Float(math.Round(bt*10)/10),
			rel.Float(math.Round(pt*10)/10),
			rel.String(cdn),
		)
	}
	return r
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b [20]byte
	pos := len(b)
	for i > 0 {
		pos--
		b[pos] = byte('0' + i%10)
		i /= 10
	}
	return string(b[pos:])
}

func testDB(n int, seed int64, skew float64) *exec.DB {
	db := exec.NewDB()
	db.Put("sessions", genSessions(n, seed, skew))
	cdns := rel.NewRelation(cdnsSchema())
	cdns.Append(rel.String("east"), rel.String("us-east"))
	cdns.Append(rel.String("west"), rel.String("us-west"))
	cdns.Append(rel.String("eu"), rel.String("europe"))
	db.Put("cdns", cdns)
	return db
}

// sortByBufferTime is the adversarial recovery fixture: ascending
// buffer_time makes the running inner average drift monotonically, forcing
// §5.1 integrity failures and replay.
func sortByBufferTime(db *exec.DB) {
	sessions, _ := db.Get("sessions")
	sort.Slice(sessions.Tuples, func(i, j int) bool {
		return sessions.Tuples[i].Vals[1].Float() < sessions.Tuples[j].Vals[1].Float()
	})
}

var streamedTables = map[string]bool{"sessions": true}

func buildEngine(t testing.TB, db *exec.DB, query string, opts core.Options) *core.Engine {
	t.Helper()
	stmt, err := sql.Parse(query)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	cat := sql.NewCatalog()
	cat.AddTable("sessions", sessionsSchema(), true)
	cat.AddTable("cdns", cdnsSchema(), false)
	node, _, err := sql.NewPlanner(cat, expr.NewRegistry(), agg.NewRegistry()).Plan(stmt)
	if err != nil {
		t.Fatalf("plan: %v", err)
	}
	eng, err := core.NewEngine(node, db, opts)
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	return eng
}

// summary captures every per-batch Update field the equivalence contract
// covers: everything except Duration (wall clock) and the Wire* bytes (which
// depend on the live worker set by design). Result and Estimates are folded
// through the same digest the batch-done protocol uses — FNV-1a over exact
// float bit patterns.
type summary struct {
	batch, batches            int
	fracBits                  uint64
	recomputed, ndset         int
	jsb, osb, jsrb            int
	shuffle, broadcast        int64
	spillW, spillR            int64
	recoveries, recoveredFrom int
	digest                    uint64
}

func summarize(t testing.TB, u *core.Update) summary {
	t.Helper()
	dg, err := core.ResultDigest(u.Result, u.Estimates)
	if err != nil {
		t.Fatalf("digest: %v", err)
	}
	return summary{
		batch: u.Batch, batches: u.Batches,
		fracBits:   math.Float64bits(u.Fraction),
		recomputed: u.Recomputed, ndset: u.NDSetRows,
		jsb: u.JoinStateBytes, osb: u.OtherStateBytes, jsrb: u.JoinStateResidentBytes,
		shuffle: u.ShuffleBytes, broadcast: u.BroadcastBytes,
		spillW: u.SpillBytesWritten, spillR: u.SpillBytesRead,
		recoveries: u.Recoveries, recoveredFrom: u.RecoveredFrom,
		digest: dg,
	}
}

// runLocal executes the sequential oracle: Workers=1, no exchanger.
func runLocal(t testing.TB, db *exec.DB, query string, opts core.Options) []summary {
	t.Helper()
	opts.Workers = 1
	opts.Exchange = nil
	eng := buildEngine(t, db, query, opts)
	defer eng.Close()
	var out []summary
	for !eng.Done() {
		u, err := eng.Step()
		if err != nil {
			t.Fatalf("local step: %v", err)
		}
		out = append(out, summarize(t, u))
	}
	return out
}

// runDist executes the query through a coordinator over the given worker
// connections and returns the per-batch summaries plus the coordinator (for
// liveness/redispatch assertions; it is already closed).
func runDist(t testing.TB, conns []net.Conn, db *exec.DB, query string, opts core.Options, cfg Config) ([]summary, *Coordinator) {
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
	for !eng.Done() {
		u, err := coord.Step(eng)
		if err != nil {
			t.Fatalf("dist step: %v", err)
		}
		out = append(out, summarize(t, u))
	}
	return out, coord
}

func assertSameRun(t testing.TB, name string, got, want []summary) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d batches, want %d", name, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: batch %d diverged from local oracle:\ngot:  %+v\nwant: %+v",
				name, i+1, got[i], want[i])
		}
	}
}

// startTCPWorkers listens n real TCP workers on loopback ports and returns
// their addresses.
func startTCPWorkers(t testing.TB, n int, opts WorkerOptions) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		t.Cleanup(func() { l.Close() })
		go Serve(l, opts)
		addrs[i] = l.Addr().String()
	}
	return addrs
}

var distQueries = []struct {
	name  string
	query string
}{
	{"flat_group_by", `SELECT cdn, COUNT(*) AS n, AVG(play_time) AS apt FROM sessions GROUP BY cdn`},
	{"join_dim_group", `SELECT c.region, SUM(s.play_time) AS spt FROM sessions s, cdns c
		WHERE s.cdn = c.cdn GROUP BY c.region`},
	{"sbi_nested_scalar", `SELECT AVG(play_time) AS apt FROM sessions
		WHERE buffer_time > (SELECT AVG(buffer_time) FROM sessions)`},
	{"nested_in_having", `SELECT AVG(play_time) AS apt FROM sessions
		WHERE cdn IN (SELECT cdn FROM sessions GROUP BY cdn HAVING AVG(buffer_time) > 20)`},
}

func baseOpts() core.Options {
	return core.Options{Mode: core.ModeIOLAP, Batches: 5, Trials: 15, Seed: 3, ParThreshold: 1}
}

// forceDist makes every site distributed regardless of size, so the small
// fixtures exercise every span codec and merge path.
func forceDist() Config { return Config{MinRows: 1} }

// TestDistEquivalence is the core acceptance sweep: loopback and real TCP
// transports, 2 and 3 remote workers, coordinator pools of 1 and 2 local
// workers — every combination must match the sequential local oracle on every
// per-batch field, bit for bit.
func TestDistEquivalence(t *testing.T) {
	cases := []struct {
		name      string
		transport string
		workers   int
		localW    int
	}{
		{"loopback_w2", "loopback", 2, 1},
		{"loopback_w3", "loopback", 3, 1},
		{"loopback_w2_pool2", "loopback", 2, 2},
		{"tcp_w2", "tcp", 2, 1},
		{"tcp_w3", "tcp", 3, 1},
	}
	for _, q := range distQueries {
		q := q
		t.Run(q.name, func(t *testing.T) {
			local := runLocal(t, testDB(120, 11, 0), q.query, baseOpts())
			for _, tc := range cases {
				var conns []net.Conn
				var stop func()
				switch tc.transport {
				case "loopback":
					conns, stop = StartLoopback(tc.workers, WorkerOptions{Workers: 2})
				case "tcp":
					addrs := startTCPWorkers(t, tc.workers, WorkerOptions{Workers: 2})
					var err error
					conns, err = Dial(addrs, time.Second)
					if err != nil {
						t.Fatalf("%s: %v", tc.name, err)
					}
					stop = func() {}
				}
				opts := baseOpts()
				opts.Workers = tc.localW
				got, _ := runDist(t, conns, testDB(120, 11, 0), q.query, opts, forceDist())
				stop()
				assertSameRun(t, q.name+"/"+tc.name, got, local)
			}
		})
	}
}

// TestDistEquivalenceSkew repeats the check on a 90%-east key distribution,
// where span boundaries cut through heavily duplicated join keys.
func TestDistEquivalenceSkew(t *testing.T) {
	query := distQueries[1].query // join_dim_group
	local := runLocal(t, testDB(150, 5, 0.9), query, baseOpts())
	conns, stop := StartLoopback(3, WorkerOptions{})
	defer stop()
	got, _ := runDist(t, conns, testDB(150, 5, 0.9), query, baseOpts(), forceDist())
	assertSameRun(t, "skew", got, local)
}

// TestDistEquivalenceUnderRecovery runs the adversarial §5.1 fixture —
// ascending buffer_time forces variation-range integrity failures and
// replays — and checks the replicas stay in lockstep through recovery (the
// replays re-run the distributed sites in the same order on every replica).
func TestDistEquivalenceUnderRecovery(t *testing.T) {
	query := `SELECT AVG(play_time) AS apt FROM sessions
		WHERE buffer_time > (SELECT AVG(buffer_time) FROM sessions)`
	opts := core.Options{Mode: core.ModeIOLAP, Batches: 10, Trials: 20, Slack: 0, Seed: 4, ParThreshold: 1}

	ldb := testDB(200, 7, 0)
	sortByBufferTime(ldb)
	local := runLocal(t, ldb, query, opts)
	recovered := 0
	for _, s := range local {
		recovered += s.recoveries
	}
	if recovered == 0 {
		t.Fatal("recovery fixture produced no recoveries; the test is vacuous")
	}

	ddb := testDB(200, 7, 0)
	sortByBufferTime(ddb)
	conns, stop := StartLoopback(2, WorkerOptions{})
	defer stop()
	got, _ := runDist(t, conns, ddb, query, opts, forceDist())
	assertSameRun(t, "recovery", got, local)
}

// TestWorkerKilledMidBatch kills worker 1's connection at a sweep of frame
// ordinals — landing the death inside different sites and batches — and
// requires bit-identical results every time, with the dead worker's spans
// re-dispatched and the worker expelled from later batches.
func TestWorkerKilledMidBatch(t *testing.T) {
	query := distQueries[1].query // join_dim_group: exercises row-span shipping
	local := runLocal(t, testDB(120, 11, 0), query, baseOpts())

	anyRedispatch, anyKilled := false, false
	for failAt := 6; failAt <= 40; failAt += 4 {
		conns, stop := StartLoopback(2, WorkerOptions{})
		fc := NewFaultConn(conns[0])
		fc.KillOnFault(true)
		fc.FailReadAt(failAt)
		cfg := forceDist()
		cfg.SpanDeadline = 100 * time.Millisecond
		cfg.Retries = 1
		got, coord := runDist(t, []net.Conn{fc, conns[1]}, testDB(120, 11, 0), query, baseOpts(), cfg)
		assertSameRun(t, "killed@"+itoa(failAt), got, local)
		if coord.LiveWorkers() < 2 {
			anyKilled = true
			if err := coord.WorkerErrors()[1]; err == nil {
				t.Errorf("failAt=%d: dead worker 1 has no recorded error", failAt)
			}
		}
		if total, _ := coord.Redispatched(); total > 0 {
			anyRedispatch = true
		}
		stop()
	}
	if !anyKilled {
		t.Error("fault sweep never killed the worker; increase the ordinal range")
	}
	if !anyRedispatch {
		t.Error("fault sweep never exercised span re-dispatch")
	}
}

// TestSilentWorkerTimesOutAndRedispatches covers the deadline-escalation
// death path: a worker that completes setup and then goes silent must be
// declared dead after the escalated deadlines expire, its spans re-dispatched
// to the surviving worker, and the results must still match the oracle.
func TestSilentWorkerTimesOutAndRedispatches(t *testing.T) {
	query := distQueries[0].query
	local := runLocal(t, testDB(100, 2, 0), query, baseOpts())

	live, stopLive := StartLoopback(1, WorkerOptions{})
	defer stopLive()
	cConn, sConn := net.Pipe()
	silentDone := make(chan struct{})
	go func() { // a worker that acks setup, then absorbs frames forever
		defer close(silentDone)
		if _, _, err := wire.ReadFrame(sConn); err != nil {
			return
		}
		wire.WriteFrame(sConn, msgSetupOK, nil)
		io.Copy(io.Discard, sConn)
	}()

	cfg := forceDist()
	cfg.SpanDeadline = 20 * time.Millisecond
	cfg.Retries = 2
	got, coord := runDist(t, []net.Conn{live[0], cConn}, testDB(100, 2, 0), query, baseOpts(), cfg)
	assertSameRun(t, "silent", got, local)
	if coord.LiveWorkers() != 1 {
		t.Fatalf("live workers: %d, want 1", coord.LiveWorkers())
	}
	total, remote := coord.Redispatched()
	if total == 0 || remote == 0 {
		t.Fatalf("redispatched total=%d remote=%d, want both > 0", total, remote)
	}
	cConn.Close()
	<-silentDone
}

// TestHeartbeatDropsDeadLinkBetweenBatches severs a worker's link between
// batches; the pre-batch heartbeat sweep must expel it before the next
// frozen live set, and results must stay identical.
func TestHeartbeatDropsDeadLinkBetweenBatches(t *testing.T) {
	query := distQueries[0].query
	local := runLocal(t, testDB(100, 2, 0), query, baseOpts())

	conns, stop := StartLoopback(2, WorkerOptions{})
	defer stop()
	cfg := forceDist()
	cfg.HeartbeatInterval = time.Nanosecond // ping before every batch
	coord := NewCoordinator(conns, cfg)
	defer coord.Close()
	if err := coord.Setup(testDB(100, 2, 0), streamedTables, query, baseOpts()); err != nil {
		t.Fatalf("setup: %v", err)
	}
	opts := baseOpts()
	opts.Exchange = coord
	eng := buildEngine(t, testDB(100, 2, 0), query, opts)
	defer eng.Close()
	var got []summary
	step := 0
	for !eng.Done() {
		u, err := coord.Step(eng)
		if err != nil {
			t.Fatalf("step: %v", err)
		}
		got = append(got, summarize(t, u))
		step++
		if step == 2 {
			conns[1].Close() // sever worker 2 between batches
		}
	}
	assertSameRun(t, "heartbeat", got, local)
	if coord.LiveWorkers() != 1 {
		t.Fatalf("live workers: %d, want 1", coord.LiveWorkers())
	}
}

// TestWireAccountingMatchesConnBytes wraps every coordinator connection in a
// byte counter and checks the acceptance criterion directly: reported
// shuffle bytes equal bytes read off the wire and reported broadcast bytes
// equal bytes written onto it — exactly, frame headers included.
func TestWireAccountingMatchesConnBytes(t *testing.T) {
	query := distQueries[1].query
	conns, stop := StartLoopback(2, WorkerOptions{})
	defer stop()
	counted := []*countingConn{newCountingConn(conns[0]), newCountingConn(conns[1])}

	coord := NewCoordinator([]net.Conn{counted[0], counted[1]}, forceDist())
	if err := coord.Setup(testDB(120, 11, 0), streamedTables, query, baseOpts()); err != nil {
		t.Fatalf("setup: %v", err)
	}
	opts := baseOpts()
	opts.Exchange = coord
	eng := buildEngine(t, testDB(120, 11, 0), query, opts)
	defer eng.Close()
	var sumShuffle, sumBroadcast int64
	for !eng.Done() {
		u, err := coord.Step(eng)
		if err != nil {
			t.Fatalf("step: %v", err)
		}
		sumShuffle += u.WireShuffleBytes
		sumBroadcast += u.WireBroadcastBytes
	}
	coord.Close() // shutdown frames count too

	shuffle, broadcast := coord.WireStats()
	var read, written int64
	for _, cc := range counted {
		r, w := cc.Totals()
		read += r
		written += w
	}
	if shuffle != read {
		t.Errorf("shuffle: reported %d, measured %d on the wire", shuffle, read)
	}
	if broadcast != written {
		t.Errorf("broadcast: reported %d, measured %d on the wire", broadcast, written)
	}
	if shuffle == 0 || broadcast == 0 {
		t.Error("wire counters are zero; the distributed path did not run")
	}
	// Per-batch Update figures cover batch traffic only (setup and shutdown
	// frames belong to no batch), so they must sum to at most the totals —
	// and must have observed real traffic.
	if sumShuffle <= 0 || sumShuffle > shuffle {
		t.Errorf("sum of per-batch wire shuffle %d outside (0, %d]", sumShuffle, shuffle)
	}
	if sumBroadcast <= 0 || sumBroadcast > broadcast {
		t.Errorf("sum of per-batch wire broadcast %d outside (0, %d]", sumBroadcast, broadcast)
	}
}

// TestSetupTimeout: a connection nobody serves must fail Setup with a
// timeout, not hang.
func TestSetupTimeout(t *testing.T) {
	cConn, sConn := net.Pipe()
	defer cConn.Close()
	go io.Copy(io.Discard, sConn) // absorb the setup frame, never reply
	cfg := forceDist()
	cfg.SetupDeadline = 50 * time.Millisecond
	coord := NewCoordinator([]net.Conn{cConn}, cfg)
	defer coord.Close()
	err := coord.Setup(testDB(20, 1, 0), streamedTables, distQueries[0].query, baseOpts())
	if err == nil {
		t.Fatal("setup against a silent peer should fail")
	}
}

// TestWorkerRejectsGarbageSetup: a malformed setup frame must produce a
// worker-side error reply, not a crash or a hang.
func TestWorkerRejectsGarbageSetup(t *testing.T) {
	cConn, sConn := net.Pipe()
	defer cConn.Close()
	done := make(chan error, 1)
	go func() { done <- ServeConn(sConn, WorkerOptions{IdleTimeout: time.Second}) }()
	if err := wire.WriteFrame(cConn, msgSetup, []byte{0xff, 0xff, 0xff}); err != nil {
		t.Fatal(err)
	}
	typ, _, err := wire.ReadFrame(cConn)
	if err != nil {
		t.Fatalf("read reply: %v", err)
	}
	if typ != msgError {
		t.Fatalf("reply type %d, want msgError", typ)
	}
	if err := <-done; err == nil {
		t.Fatal("worker session should report the setup failure")
	}
}

// TestWorkerRejectsLyingSpanBounds: compute and merge slice with the bounds a
// coordinator sends, and only the site knows its size, so a worker must end
// the session with an error — not a slice-bounds panic — on a compute request
// or a merged span outside [0, n].
func TestWorkerRejectsLyingSpanBounds(t *testing.T) {
	// own is the worker's span of the first site. The only live worker of a
	// two-participant site owns its tail, so own.hi is the site's n; the
	// merged lie re-addresses the worker's own (decodable) payload past it.
	lies := map[string]func(own spanMsg) (byte, []byte){
		"compute": func(own spanMsg) (byte, []byte) { return msgCompute, encodeCompute(own.seq, 5, 1<<40) },
		"merged": func(own spanMsg) (byte, []byte) {
			n, width := own.hi, own.hi-own.lo
			return msgMerged, encodeMerged(own.seq, [][2]int{{n, n + width}}, [][]byte{own.payload}, false)
		},
	}
	for name, lie := range lies {
		t.Run(name, func(t *testing.T) {
			cConn, sConn := net.Pipe()
			defer cConn.Close()
			done := make(chan error, 1)
			go func() {
				defer sConn.Close()
				defer func() {
					if r := recover(); r != nil {
						done <- fmt.Errorf("worker panicked: %v", r)
					}
				}()
				done <- ServeConn(sConn, WorkerOptions{IdleTimeout: time.Second})
			}()
			setup, err := encodeSetup(1, 1, baseOpts(), distQueries[0].query, testDB(200, 11, 0), streamedTables, 0, 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			if err := wire.WriteFrame(cConn, msgSetup, setup); err != nil {
				t.Fatal(err)
			}
			if typ, _, err := wire.ReadFrame(cConn); err != nil || typ != msgSetupOK {
				t.Fatalf("setup reply: type %d, err %v", typ, err)
			}
			if err := wire.WriteFrame(cConn, msgStep, encodeStep(1, []int{1}, []int{16, 16})); err != nil {
				t.Fatal(err)
			}
			typ, pl, err := wire.ReadFrame(cConn)
			if err != nil || typ != msgSpan {
				t.Fatalf("first site: type %d, err %v (session: %v)", typ, err, <-done)
			}
			sm, err := decodeSpan(pl)
			if err != nil {
				t.Fatal(err)
			}
			typ, pl = lie(sm)
			if err := wire.WriteFrame(cConn, typ, pl); err != nil {
				t.Fatal(err)
			}
			if typ, _, err := wire.ReadFrame(cConn); err != nil || typ != msgError {
				t.Errorf("reply to the lie: type %d, err %v; want msgError", typ, err)
			}
			if err := <-done; err == nil || !strings.Contains(err.Error(), "outside a site of") {
				t.Fatalf("session ended with %v, want a span-bounds error", err)
			}
		})
	}
}

// TestDistEquivalenceCompressed: WireCompression changes bytes on the wire,
// never results. The compressed distributed run matches the local oracle on
// every per-batch field bit for bit, and total coordinator→worker wire bytes
// (dominated by the Setup table broadcast) drop materially.
func TestDistEquivalenceCompressed(t *testing.T) {
	query := distQueries[1].query // join_dim_group
	local := runLocal(t, testDB(1200, 11, 0), query, baseOpts())
	run := func(compress bool) ([]summary, int64) {
		conns, stop := StartLoopback(2, WorkerOptions{Workers: 2})
		defer stop()
		opts := baseOpts()
		opts.WireCompression = compress
		got, coord := runDist(t, conns, testDB(1200, 11, 0), query, opts, forceDist())
		_, broadcast := coord.WireStats()
		return got, broadcast
	}
	plain, rawBytes := run(false)
	compressed, compBytes := run(true)
	assertSameRun(t, "compress_off", plain, local)
	assertSameRun(t, "compress_on", compressed, local)
	if compBytes >= rawBytes {
		t.Fatalf("compressed broadcast %d B not below uncompressed %d B", compBytes, rawBytes)
	}
	t.Logf("broadcast bytes: %d raw, %d compressed (%.1fx)", rawBytes, compBytes, float64(rawBytes)/float64(compBytes))
}
