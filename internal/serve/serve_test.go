package serve

import (
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"testing"

	"iolap/internal/agg"
	"iolap/internal/core"
	"iolap/internal/exec"
	"iolap/internal/expr"
	"iolap/internal/rel"
	"iolap/internal/sql"
)

// testDB builds the sessions fixture: n rows over 8 cdns with deterministic
// float columns.
func testDB(n int, seed int64) *exec.DB {
	rng := rand.New(rand.NewSource(seed))
	db := exec.NewDB()
	sessions := rel.NewRelation(rel.Schema{
		{Name: "session_id", Type: rel.KString},
		{Name: "buffer_time", Type: rel.KFloat},
		{Name: "play_time", Type: rel.KFloat},
		{Name: "cdn", Type: rel.KString},
	})
	for i := 0; i < n; i++ {
		sessions.Append(
			rel.String("s"+strconv.Itoa(i)),
			rel.Float(float64(10+rng.Intn(500))/10),
			rel.Float(float64(300+rng.Intn(6000))/10),
			rel.String("c"+strconv.Itoa(rng.Intn(8))),
		)
	}
	db.Put("sessions", sessions)
	return db
}

var testStreamed = map[string]bool{"sessions": true}

// Test queries, mixed shapes: global aggregate, group-by, nested aggregate
// subquery, and ORDER BY/LIMIT post-processing.
var testQueries = []string{
	`SELECT COUNT(*) AS n, AVG(play_time) AS apt FROM sessions`,
	`SELECT cdn, SUM(play_time) AS spt FROM sessions GROUP BY cdn`,
	`SELECT AVG(play_time) AS apt FROM sessions WHERE buffer_time > (SELECT AVG(buffer_time) FROM sessions)`,
	`SELECT cdn, SUM(play_time) AS spt FROM sessions GROUP BY cdn ORDER BY spt DESC LIMIT 3`,
}

// soloTrajectory is the oracle: the same query and options on a dedicated
// core engine over the default contiguous schedule — exactly what the shared
// scan hands each session, so trajectories must match bit for bit.
func soloTrajectory(t *testing.T, db *exec.DB, query string, opts SessionOptions, batches int) []*Update {
	t.Helper()
	stmt, err := sql.Parse(query)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	cat := sql.NewCatalog()
	for _, name := range db.Tables() {
		r, _ := db.Get(name)
		cat.AddTable(name, r.Schema, testStreamed[name])
	}
	node, pp, err := sql.NewPlanner(cat, expr.NewRegistry(), agg.NewRegistry()).Plan(stmt)
	if err != nil {
		t.Fatalf("plan: %v", err)
	}
	eng, err := core.NewEngine(node, db, core.Options{
		Batches: batches, Mode: opts.Mode, Trials: opts.Trials, Slack: opts.Slack,
		Seed: opts.Seed, Workers: opts.Workers,
	})
	if err != nil {
		t.Fatalf("core engine: %v", err)
	}
	defer eng.Close()
	var out []*Update
	for !eng.Done() {
		u, err := eng.Step()
		if err != nil {
			t.Fatalf("solo step: %v", err)
		}
		out = append(out, convertUpdate(u, pp))
	}
	return out
}

func drain(s *Session) []*Update {
	var out []*Update
	for s.Next() {
		out = append(out, s.Update())
	}
	return out
}

// TestCrossSessionEquivalence is the tentpole contract: 8 concurrent
// sessions — mixed query shapes, mixed Workers, distinct seeds — over one
// shared scan, each bit-identical (math.Float64bits) to a solo run of the
// same query over the same batch schedule.
func TestCrossSessionEquivalence(t *testing.T) {
	const batches = 6
	db := testDB(1200, 42)
	type slot struct {
		query string
		opts  SessionOptions
	}
	var slots []slot
	for i, w := range []int{1, 4, 1, 4, 1, 4, 1, 4} {
		slots = append(slots, slot{
			query: testQueries[i%len(testQueries)],
			opts:  SessionOptions{Trials: 20, Seed: uint64(100 + i), Workers: w},
		})
	}
	oracles := make([][]*Update, len(slots))
	for i, sl := range slots {
		oracles[i] = soloTrajectory(t, db, sl.query, sl.opts, batches)
		if len(oracles[i]) != batches {
			t.Fatalf("slot %d: oracle has %d updates, want %d", i, len(oracles[i]), batches)
		}
	}

	eng := NewEngine(db, testStreamed, nil, nil, Config{Batches: batches})
	defer eng.Close()
	got := make([][]*Update, len(slots))
	errs := make([]error, len(slots))
	var wg sync.WaitGroup
	wg.Add(len(slots))
	for i, sl := range slots {
		go func(i int, sl slot) {
			defer wg.Done()
			s, err := eng.Open(sl.query, sl.opts)
			if err != nil {
				errs[i] = err
				return
			}
			got[i] = drain(s)
			errs[i] = s.Err()
		}(i, sl)
	}
	wg.Wait()
	for i := range slots {
		if errs[i] != nil {
			t.Fatalf("slot %d: %v", i, errs[i])
		}
		if !BitIdentical(got[i], oracles[i]) {
			t.Errorf("slot %d (workers=%d): shared-scan trajectory differs from solo run", i, slots[i].opts.Workers)
		}
	}
	if st := eng.Snapshot(); st.Completed != int64(len(slots)) {
		t.Errorf("completed = %d, want %d", st.Completed, len(slots))
	}
}

// TestStaggeredOpensAndCancels covers the cohort mechanics: sessions opened
// mid-run join later passes with full bit-identical trajectories, and a
// cancelled session's delivered prefix is a bit-identical prefix of its solo
// run, ending in ErrCancelled.
func TestStaggeredOpensAndCancels(t *testing.T) {
	const batches = 5
	db := testDB(900, 7)
	eng := NewEngine(db, testStreamed, nil, nil, Config{Batches: batches})
	defer eng.Close()

	optsAt := func(i int) SessionOptions {
		return SessionOptions{Trials: 10, Seed: uint64(i), Workers: 1 + 3*(i%2)}
	}

	// Wave 1: two full sessions plus one cancelled after its first update.
	// The scan starts only once all three are pending (one cohort) and holds
	// before batch 1 until released, so the cancel lands at that boundary.
	release := holdBeforeBatch(eng, "sessions", 1)
	defer release()
	s0, err := eng.Open(testQueries[0], optsAt(0))
	if err != nil {
		t.Fatal(err)
	}
	s1, err := eng.Open(testQueries[1], optsAt(1))
	if err != nil {
		t.Fatal(err)
	}
	sc, err := eng.Open(testQueries[2], optsAt(2))
	if err != nil {
		t.Fatal(err)
	}
	startScan(eng, "sessions")
	var cancelled []*Update
	if sc.Next() {
		cancelled = append(cancelled, sc.Update())
	}
	sc.Cancel()

	// Wave 2 opens while wave 1 is held mid-pass, so it rides the next pass.
	s3, err := eng.Open(testQueries[3], optsAt(3))
	if err != nil {
		t.Fatal(err)
	}
	release()

	cancelled = append(cancelled, drain(sc)...)
	if !errors.Is(sc.Err(), ErrCancelled) {
		t.Errorf("cancelled session err = %v, want ErrCancelled", sc.Err())
	}
	if len(cancelled) != 1 {
		t.Errorf("cancelled session delivered %d updates, want exactly the 1 before the boundary it was cancelled at", len(cancelled))
	}
	oracleC := soloTrajectory(t, db, testQueries[2], optsAt(2), batches)
	if !BitIdentical(cancelled, oracleC[:len(cancelled)]) {
		t.Error("cancelled session prefix differs from solo run")
	}

	for i, pair := range []struct {
		s     *Session
		query string
		idx   int
	}{{s0, testQueries[0], 0}, {s1, testQueries[1], 1}, {s3, testQueries[3], 3}} {
		got := drain(pair.s)
		if err := pair.s.Err(); err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
		if !BitIdentical(got, soloTrajectory(t, db, pair.query, optsAt(pair.idx), batches)) {
			t.Errorf("session %d: trajectory differs from solo run", i)
		}
	}
}

// holdScans marks a table's scan loop as already running without starting
// it, so admitted sessions stay in pending forever — admission decisions
// become fully deterministic for the budget tests. Close still works: the
// loop was never started, so the engine's WaitGroup is empty.
func holdScans(e *Engine, table string) {
	e.mu.Lock()
	e.loops[table] = true
	e.mu.Unlock()
}

// startScan starts the scan loop holdScans withheld: every session opened in
// between is pending by then, so the first cohort is exactly those sessions.
func startScan(e *Engine, table string) {
	e.wg.Add(1)
	go e.scanLoop(table)
}

// holdBeforeBatch withholds the table's scan loop (start it with startScan)
// and gates every pass before batch b until the returned release is called —
// the scan is stepped by the test, not by the scheduler. release is
// idempotent; defer it too, so a failing test cannot leave Close waiting on
// a gated scan.
func holdBeforeBatch(e *Engine, table string, b int) (release func()) {
	holdScans(e, table)
	gate := make(chan struct{})
	e.batchGate = func(batch int) {
		if batch == b {
			<-gate
		}
	}
	var once sync.Once
	return func() { once.Do(func() { close(gate) }) }
}

func TestBudgetRejectBoundary(t *testing.T) {
	db := testDB(100, 1)
	eng := NewEngine(db, testStreamed, nil, nil, Config{
		Batches: 4, TenantBudgetBytes: 3 * DefaultSessionBytes,
	})
	holdScans(eng, "sessions")
	defer eng.Close()

	open := func(tenant string, budget int64) (*Session, error) {
		return eng.Open(testQueries[0], SessionOptions{Tenant: tenant, StateBudgetBytes: budget})
	}
	// Three default reservations exactly fill tenant a's budget.
	for i := 0; i < 3; i++ {
		if _, err := open("a", 0); err != nil {
			t.Fatalf("open %d: %v", i, err)
		}
	}
	if got := eng.TenantReserved("a"); got != 3*DefaultSessionBytes {
		t.Fatalf("reserved = %d, want %d", got, 3*DefaultSessionBytes)
	}
	// The boundary is exact: one more byte-equivalent session is rejected...
	if _, err := open("a", 0); !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("4th open err = %v, want ErrBudgetExhausted", err)
	}
	// ...while another tenant is untouched,
	if _, err := open("b", 0); err != nil {
		t.Fatalf("tenant b: %v", err)
	}
	// and a rejected open reserves nothing.
	if got := eng.TenantReserved("a"); got != 3*DefaultSessionBytes {
		t.Fatalf("reserved after reject = %d, want %d", got, 3*DefaultSessionBytes)
	}
	st := eng.Snapshot()
	if st.Rejected != 1 || st.Opened != 4 {
		t.Errorf("stats = %+v, want Rejected=1 Opened=4", st)
	}
}

// TestIllKindedQueryFailsItsOpen: a query whose operand kinds the evaluator
// cannot take used to plan and then panic on the engine's scan goroutine,
// taking the whole serving process down. Its open now fails with a plan
// error, and the engine goes on serving other sessions.
func TestIllKindedQueryFailsItsOpen(t *testing.T) {
	eng := NewEngine(testDB(100, 1), testStreamed, nil, nil, Config{Batches: 4})
	defer eng.Close()
	if s, err := eng.Open(`SELECT cdn + 1 AS x FROM sessions`, SessionOptions{Stream: "sessions"}); err == nil {
		s.Cancel()
		t.Fatal("ill-kinded query opened; want a plan error")
	}
	s, err := eng.Open(testQueries[0], SessionOptions{Stream: "sessions", Trials: 10, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(drain(s)); got != 4 {
		t.Fatalf("healthy session delivered %d updates, want 4", got)
	}
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestRangeOfBooleanArgumentServes: an IF over a comparison of an aggregate
// asks only its numeric arguments for variation ranges. Asking the boolean
// condition panics on the engine's scan goroutine, which takes the whole
// serving process down; here the session delivers every update and the
// engine goes on serving others.
func TestRangeOfBooleanArgumentServes(t *testing.T) {
	eng := NewEngine(testDB(100, 1), testStreamed, nil, nil, Config{Batches: 4})
	defer eng.Close()
	s, err := eng.Open(`SELECT cdn, COUNT(*) AS n FROM sessions GROUP BY cdn HAVING IF(COUNT(*) > 74, 1, 0) = 1`,
		SessionOptions{Stream: "sessions", Trials: 10, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(drain(s)); got != 4 {
		t.Fatalf("IF session delivered %d updates, want 4", got)
	}
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	h, err := eng.Open(testQueries[0], SessionOptions{Stream: "sessions", Trials: 10, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(drain(h)); got != 4 {
		t.Fatalf("healthy session delivered %d updates, want 4", got)
	}
	if err := h.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestBudgetQueueFIFO(t *testing.T) {
	db := testDB(100, 1)
	eng := NewEngine(db, testStreamed, nil, nil, Config{
		Batches: 4, TenantBudgetBytes: 2 * DefaultSessionBytes, QueueOnBudget: true,
	})
	holdScans(eng, "sessions")
	defer eng.Close()

	open := func() *Session {
		s, err := eng.Open(testQueries[1], SessionOptions{Tenant: "a"})
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		return s
	}
	s1, s2 := open(), open()
	q3, q4, q5 := open(), open(), open()
	_ = s2
	if q3.State() != StateQueued || q4.State() != StateQueued || q5.State() != StateQueued {
		t.Fatalf("states = %v %v %v, want all queued", q3.State(), q4.State(), q5.State())
	}
	if eng.QueueLen() != 3 {
		t.Fatalf("queue len = %d, want 3", eng.QueueLen())
	}

	// Cancelling a queued session finishes it immediately without touching
	// the budget.
	q4.Cancel()
	if got := drain(q4); len(got) != 0 {
		t.Fatalf("cancelled queued session delivered %d updates", len(got))
	}
	if !errors.Is(q4.Err(), ErrCancelled) {
		t.Fatalf("queued cancel err = %v", q4.Err())
	}
	if eng.QueueLen() != 2 {
		t.Fatalf("queue len after cancel = %d, want 2", eng.QueueLen())
	}

	// Releasing one reservation admits exactly the queue head (strict FIFO):
	// q3 becomes waiting, q5 stays queued.
	eng.finish(s1, nil, true)
	if q3.State() != StateWaiting {
		t.Errorf("q3 state = %v, want waiting after release", q3.State())
	}
	if q5.State() != StateQueued {
		t.Errorf("q5 state = %v, want still queued", q5.State())
	}
	if eng.QueueLen() != 1 {
		t.Errorf("queue len = %d, want 1", eng.QueueLen())
	}
	if got := eng.TenantReserved("a"); got != 2*DefaultSessionBytes {
		t.Errorf("reserved = %d, want %d", got, 2*DefaultSessionBytes)
	}
}

// TestCloseReleasesEverything: engine shutdown finishes queued, waiting and
// running sessions with ErrCancelled and zeroes all reservations.
func TestCloseReleasesEverything(t *testing.T) {
	db := testDB(100, 1)
	eng := NewEngine(db, testStreamed, nil, nil, Config{
		Batches: 4, TenantBudgetBytes: DefaultSessionBytes, QueueOnBudget: true,
	})
	holdScans(eng, "sessions")
	admitted, err := eng.Open(testQueries[0], SessionOptions{Tenant: "a"})
	if err != nil {
		t.Fatal(err)
	}
	queued, err := eng.Open(testQueries[0], SessionOptions{Tenant: "a"})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	for name, s := range map[string]*Session{"admitted": admitted, "queued": queued} {
		drain(s)
		if !errors.Is(s.Err(), ErrCancelled) {
			t.Errorf("%s err = %v, want ErrCancelled", name, s.Err())
		}
	}
	if got := eng.TenantReserved("a"); got != 0 {
		t.Errorf("reserved after close = %d, want 0", got)
	}
	if eng.SessionCount() != 0 || eng.QueueLen() != 0 {
		t.Errorf("sessions=%d queue=%d after close, want 0/0", eng.SessionCount(), eng.QueueLen())
	}
	if _, err := eng.Open(testQueries[0], SessionOptions{}); !errors.Is(err, ErrClosed) {
		t.Errorf("open after close err = %v, want ErrClosed", err)
	}
}

// TestSessionLifecycleNoLeak: 100 open/close cycles — half abandoned
// mid-stream, half drained to completion — leave no session state and no
// reservation behind.
func TestSessionLifecycleNoLeak(t *testing.T) {
	db := testDB(400, 3)
	eng := NewEngine(db, testStreamed, nil, nil, Config{Batches: 4})
	defer eng.Close()
	for i := 0; i < 100; i++ {
		s, err := eng.Open(testQueries[i%len(testQueries)], SessionOptions{
			Tenant: "t", Trials: 5, Seed: uint64(i),
		})
		if err != nil {
			t.Fatalf("cycle %d: %v", i, err)
		}
		if i%2 == 0 {
			s.Close() // abandon: cancel + drain
		} else {
			drain(s)
			if err := s.Err(); err != nil {
				t.Fatalf("cycle %d: %v", i, err)
			}
		}
		// Close/drain return only after finishLocked ran, so the release is
		// observable immediately — any leak trips on the exact cycle.
		if n := eng.SessionCount(); n != 0 {
			t.Fatalf("cycle %d: %d sessions leaked", i, n)
		}
		if r := eng.TenantReserved("t"); r != 0 {
			t.Fatalf("cycle %d: %d bytes leaked", i, r)
		}
	}
}

// TestConcurrentStress hammers one engine with concurrent Open / Next /
// Cancel / Close from many goroutines — the -race suite's serving workload.
func TestConcurrentStress(t *testing.T) {
	db := testDB(400, 9)
	eng := NewEngine(db, testStreamed, nil, nil, Config{
		Batches: 4, TenantBudgetBytes: 6 * DefaultSessionBytes, QueueOnBudget: true,
	})
	defer eng.Close()
	const goroutines = 12
	const iters = 6
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				s, err := eng.Open(testQueries[(g+i)%len(testQueries)], SessionOptions{
					Tenant: fmt.Sprintf("t%d", g%3), Trials: 5, Seed: uint64(g*100 + i),
				})
				if err != nil {
					continue // budget races are expected shutdown-adjacent noise
				}
				switch i % 3 {
				case 0:
					drain(s)
				case 1:
					if s.Next() {
						_ = s.Update().MaxRelStdev()
					}
					s.Close()
				default:
					s.Cancel()
					drain(s)
				}
			}
		}(g)
	}
	wg.Wait()
	if n := eng.SessionCount(); n != 0 {
		t.Errorf("%d sessions still live after stress", n)
	}
	for g := 0; g < 3; g++ {
		if r := eng.TenantReserved(fmt.Sprintf("t%d", g)); r != 0 {
			t.Errorf("tenant t%d: %d bytes still reserved", g, r)
		}
	}
}

// TestSameQuerySameSeedSessionsAgree: two concurrent sessions of the same
// query and seed deliver byte-for-byte the same stream — per-session
// randomness is isolated.
func TestSameQuerySameSeedSessionsAgree(t *testing.T) {
	db := testDB(800, 11)
	eng := NewEngine(db, testStreamed, nil, nil, Config{Batches: 5})
	defer eng.Close()
	opts := SessionOptions{Trials: 15, Seed: 77, Workers: 2}
	var got [2][]*Update
	var errs [2]error
	var wg sync.WaitGroup
	wg.Add(2)
	for i := 0; i < 2; i++ {
		go func(i int) {
			defer wg.Done()
			s, err := eng.Open(testQueries[2], opts)
			if err != nil {
				errs[i] = err
				return
			}
			got[i] = drain(s)
			errs[i] = s.Err()
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
	}
	if !BitIdentical(got[0], got[1]) {
		t.Error("same query + same seed sessions diverged")
	}
}
