package iolap

import (
	"net"

	"iolap/internal/serve"
)

// Budget sentinel errors of the serving engine, re-exported for errors.Is.
var (
	// ErrBudgetExhausted rejects a session open that would overflow its
	// tenant's state budget.
	ErrBudgetExhausted = serve.ErrBudgetExhausted
	// ErrSessionCancelled ends a serving session torn down before its pass
	// completed (Cancel, dropped client, or server shutdown).
	ErrSessionCancelled = serve.ErrCancelled
)

// ServeOptions tunes a serving engine (see Session.NewServer): the shared
// batch count, the per-tenant state budget and its reject-or-queue policy,
// the session cap, and the shared-state switch.
type ServeOptions = serve.Config

// ServeSessionOptions tunes one serving session. Schedule-shaping options
// are absent by design — the scan schedule belongs to the server.
type ServeSessionOptions = serve.SessionOptions

// orZero dereferences an optional options pointer; nil means defaults.
func orZero[T any](p *T) T {
	if p == nil {
		var zero T
		return zero
	}
	return *p
}

// Server is a long-lived multi-query serving engine over a snapshot of the
// session's tables: many concurrent online-aggregation sessions share one
// mini-batch scan per streamed table, each with a private delta pipeline, so
// each session's estimate stream is bit-identical to running its query
// alone. Open serves in-process callers; ListenAndServe additionally serves
// remote clients over the session protocol (see DialServer).
type Server struct {
	eng *serve.Engine
	sv  *serve.Server
}

// NewServer snapshots the session's tables into a serving engine. The
// snapshot is by reference — do not mutate tables already handed to a
// server. opts may be nil for defaults.
func (s *Session) NewServer(opts *ServeOptions) *Server {
	return &Server{eng: serve.NewEngine(s.db(), s.streamed, s.funcs, s.aggs, orZero(opts))}
}

// Open admits an in-process serving session; iterate its estimate stream
// with the returned cursor. The error unwraps to ErrBudgetExhausted when
// admission was refused.
func (sv *Server) Open(query string, opts *ServeSessionOptions) (*ServeCursor, error) {
	s, err := sv.eng.Open(query, orZero(opts))
	if err != nil {
		return nil, err
	}
	return &ServeCursor{next: s.Next, update: s.Update, err: s.Err,
		cancel: s.Cancel, id: s.ID(), batches: s.Batches()}, nil
}

// ListenAndServe starts accepting remote session-protocol clients on addr
// (host:port; :0 picks a free port) and returns the resolved address.
func (sv *Server) ListenAndServe(addr string) (string, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	sv.sv = serve.NewServer(sv.eng)
	go sv.sv.Serve(lis)
	return lis.Addr().String(), nil
}

// SessionCount returns how many sessions are admitted and unfinished.
func (sv *Server) SessionCount() int { return sv.eng.SessionCount() }

// QueueLen returns how many sessions wait for tenant budget.
func (sv *Server) QueueLen() int { return sv.eng.QueueLen() }

// TenantReserved returns a tenant's currently reserved state bytes.
func (sv *Server) TenantReserved(tenant string) int64 { return sv.eng.TenantReserved(tenant) }

// ServeStats are cumulative serving-engine counters (monotonic).
type ServeStats struct {
	Opened    int64 // sessions admitted or queued
	Rejected  int64 // opens refused at the budget boundary
	Queued    int64 // opens that entered the budget queue
	Completed int64 // sessions that delivered their exact answer
	Cancelled int64 // sessions torn down before completion
	// SharedStateHits counts session opens whose plan shared operator state
	// already resident in the cache; SharedStateBytesSaved sums the state
	// bytes those hits did not rebuild.
	SharedStateHits       int64
	SharedStateBytesSaved int64
}

// Stats returns the server's cumulative counters.
func (sv *Server) Stats() ServeStats {
	st := sv.eng.Snapshot()
	return ServeStats{
		Opened:                st.Opened,
		Rejected:              st.Rejected,
		Queued:                st.Queued,
		Completed:             st.Completed,
		Cancelled:             st.Cancelled,
		SharedStateHits:       st.SharedStateHits,
		SharedStateBytesSaved: st.SharedStateBytesSaved,
	}
}

// SharedLiveBytes returns the current footprint of the shared-state cache —
// bytes resident once no matter how many sessions reference them.
func (sv *Server) SharedLiveBytes() int64 { return sv.eng.SharedLiveBytes() }

// Close shuts the server down: remote connections drop, queued sessions are
// rejected, running sessions end with ErrSessionCancelled. Idempotent.
func (sv *Server) Close() error {
	if sv.sv != nil {
		return sv.sv.Close() // closes the engine too
	}
	return sv.eng.Close()
}

// ServeCursor iterates one serving session's estimate stream — the serving
// analogue of Cursor, local or remote.
type ServeCursor struct {
	next   func() bool
	update func() *serve.Update
	err    func() error
	cancel func()

	id      uint64
	batches int
	cur     *Update
}

// ID returns the server-assigned session id.
func (c *ServeCursor) ID() uint64 { return c.id }

// Batches returns the shared scan schedule's mini-batch count.
func (c *ServeCursor) Batches() int { return c.batches }

// Next blocks for the next estimate; false when the stream ends (see Err).
func (c *ServeCursor) Next() bool {
	if !c.next() {
		return false
	}
	su := c.update()
	u := &Update{
		Batch:          su.Batch,
		Batches:        su.Batches,
		Fraction:       su.Fraction,
		DurationMillis: su.DurationMillis,
		Recomputed:     su.Recomputed,
	}
	fillUpdate(u, su.Result, su.Estimates)
	c.cur = u
	return true
}

// Update returns the current estimate.
func (c *ServeCursor) Update() *Update { return c.cur }

// Err returns the session's terminal error: nil after a completed pass,
// ErrSessionCancelled after cancellation. Valid once Next returned false.
func (c *ServeCursor) Err() error { return c.err() }

// Cancel tears the session down server-side; already-delivered estimates
// stay readable and the stream ends with ErrSessionCancelled.
func (c *ServeCursor) Cancel() { c.cancel() }

// Close cancels the session and drains undelivered estimates.
func (c *ServeCursor) Close() error {
	c.Cancel()
	for c.Next() {
	}
	return nil
}

// ServeClient is a remote handle on a serving endpoint: one connection
// multiplexing any number of concurrent sessions, each delivering estimates
// bit-identical to a local session of the same query.
type ServeClient struct {
	c *serve.Client
}

// DialServer connects to a Server started with ListenAndServe.
func DialServer(addr string) (*ServeClient, error) {
	c, err := serve.Dial(addr)
	if err != nil {
		return nil, err
	}
	return &ServeClient{c: c}, nil
}

// Open admits a remote serving session.
func (c *ServeClient) Open(query string, opts *ServeSessionOptions) (*ServeCursor, error) {
	s, err := c.c.Open(query, orZero(opts))
	if err != nil {
		return nil, err
	}
	return &ServeCursor{next: s.Next, update: s.Update, err: s.Err,
		cancel: s.Cancel, id: s.ID(), batches: s.Batches()}, nil
}

// Close drops the connection; the server cancels this client's sessions and
// releases their budget reservations.
func (c *ServeClient) Close() error { return c.c.Close() }
