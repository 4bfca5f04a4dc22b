package serve

import (
	"errors"
	"math"
	"net"
	"testing"
	"time"

	"iolap/internal/core"
)

// startTestServer listens on a loopback port and serves a fresh engine.
func startTestServer(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	db := testDB(800, 21)
	eng := NewEngine(db, testStreamed, nil, nil, cfg)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sv := NewServer(eng)
	go sv.Serve(lis)
	t.Cleanup(func() { sv.Close() })
	return sv, lis.Addr().String()
}

// TestRemoteSessionBitIdentical: a session served over TCP delivers the same
// estimate stream, bit for bit, as the same query run locally — the wire
// codec (spill rows + Float64bits estimates) loses nothing.
func TestRemoteSessionBitIdentical(t *testing.T) {
	sv, addr := startTestServer(t, Config{Batches: 5})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	for i, query := range testQueries {
		opts := SessionOptions{Trials: 10, Seed: uint64(50 + i), Workers: 2}
		rs, err := c.Open(query, opts)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if rs.Batches() != 5 {
			t.Fatalf("query %d: batches = %d, want 5", i, rs.Batches())
		}
		var remote []*Update
		for rs.Next() {
			remote = append(remote, rs.Update())
		}
		if err := rs.Err(); err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		local, err := sv.Engine().Open(query, opts)
		if err != nil {
			t.Fatalf("query %d local: %v", i, err)
		}
		want := drain(local)
		if err := local.Err(); err != nil {
			t.Fatalf("query %d local: %v", i, err)
		}
		if !BitIdentical(remote, want) {
			t.Errorf("query %d: remote trajectory differs from local", i)
		}
	}
}

// TestRemoteConcurrentSessions: several sessions multiplexed on one client
// connection, drained from one goroutine via interleaved cursors.
func TestRemoteConcurrentSessions(t *testing.T) {
	sv, addr := startTestServer(t, Config{Batches: 4})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var sessions []*ClientSession
	for i := 0; i < 4; i++ {
		s, err := c.Open(testQueries[i%len(testQueries)], SessionOptions{Trials: 5, Seed: uint64(i)})
		if err != nil {
			t.Fatal(err)
		}
		sessions = append(sessions, s)
	}
	for i, s := range sessions {
		n := 0
		for s.Next() {
			n++
		}
		if err := s.Err(); err != nil {
			t.Errorf("session %d: %v", i, err)
		}
		if n != 4 {
			t.Errorf("session %d: %d updates, want 4", i, n)
		}
	}
	waitIdle(t, sv.Engine())
}

// TestRemoteCancel: a client-side cancel ends the stream with ErrCancelled
// and releases the server-side session.
func TestRemoteCancel(t *testing.T) {
	sv, addr := startTestServer(t, Config{Batches: 6})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	s, err := c.Open(testQueries[1], SessionOptions{Trials: 5})
	if err != nil {
		t.Fatal(err)
	}
	s.Cancel()
	for s.Next() {
	}
	if err := s.Err(); err != nil && !errors.Is(err, ErrCancelled) {
		t.Errorf("err = %v, want nil (already finished) or ErrCancelled", err)
	}
	waitIdle(t, sv.Engine())
}

// TestRemoteBudgetError: an admission rejection crosses the wire as an error
// that still unwraps to ErrBudgetExhausted.
func TestRemoteBudgetError(t *testing.T) {
	_, addr := startTestServer(t, Config{Batches: 4, MaxSessions: 1, TenantBudgetBytes: 1})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Open(testQueries[0], SessionOptions{}); !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("err = %v, want ErrBudgetExhausted", err)
	}
	// The connection stays healthy after a rejected open.
	s, err := c.Open(testQueries[0], SessionOptions{StateBudgetBytes: 1})
	if err != nil {
		t.Fatalf("second open: %v", err)
	}
	for s.Next() {
	}
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestRemoteOpenRejectsOptions: an Open whose options no engine can be built
// with gets an error, and the same connection then opens and drains a valid
// session. A trial count of 1<<62 used to panic in the connection goroutine
// and take the whole server down; a worker count of 1<<61 wrapped the pool's
// chunk counts, so parallel sites dropped rows.
func TestRemoteOpenRejectsOptions(t *testing.T) {
	sv, addr := startTestServer(t, Config{Batches: 4})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, bad := range []SessionOptions{
		{Trials: 1 << 62}, {Slack: math.NaN()}, {Slack: -3}, {Mode: core.Mode(200)}, {Workers: 1 << 61},
	} {
		if s, err := c.Open(testQueries[0], bad); err == nil {
			s.Cancel()
			t.Fatalf("open with %+v accepted", bad)
		}
	}
	s, err := c.Open(testQueries[0], SessionOptions{Trials: 5})
	if err != nil {
		t.Fatalf("valid open after rejections: %v", err)
	}
	n := 0
	for s.Next() {
		n++
	}
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Errorf("%d updates, want 4", n)
	}
	waitIdle(t, sv.Engine())
}

// TestKilledClientReleasesState: 100 cycles of connect / open / kill the
// connection without reading. Every kill must cancel the connection's
// server-side sessions and release their reservations — no leak.
func TestKilledClientReleasesState(t *testing.T) {
	sv, addr := startTestServer(t, Config{Batches: 6})
	eng := sv.Engine()
	for i := 0; i < 100; i++ {
		c, err := Dial(addr)
		if err != nil {
			t.Fatalf("cycle %d: %v", i, err)
		}
		if _, err := c.Open(testQueries[i%len(testQueries)], SessionOptions{
			Tenant: "killer", Trials: 5, Seed: uint64(i),
		}); err != nil {
			t.Fatalf("cycle %d: %v", i, err)
		}
		c.Close() // kill without reading a single estimate
	}
	waitIdle(t, eng)
	if r := eng.TenantReserved("killer"); r != 0 {
		t.Errorf("%d bytes still reserved after 100 killed clients", r)
	}
}

// waitIdle polls until the engine holds no sessions (teardown after a conn
// drop is asynchronous: the server cancels, the pass drops at a boundary).
func waitIdle(t *testing.T, e *Engine) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if e.SessionCount() == 0 && e.QueueLen() == 0 {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("engine not idle: %d sessions, %d queued", e.SessionCount(), e.QueueLen())
}

// TestServerCloseEndsClients: closing the server ends remote streams rather
// than hanging them.
func TestServerCloseEndsClients(t *testing.T) {
	sv, addr := startTestServer(t, Config{Batches: 4})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	s, err := c.Open(testQueries[0], SessionOptions{Trials: 5})
	if err != nil {
		t.Fatal(err)
	}
	sv.Close()
	done := make(chan struct{})
	go func() {
		for s.Next() {
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("stream did not end after server close")
	}
}
