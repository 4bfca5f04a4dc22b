package serve

import (
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"sync"

	"iolap/internal/core"
	"iolap/internal/wire"
)

// Server accepts session-protocol connections and bridges them onto one
// serving Engine. Each connection may multiplex many sessions; when a
// connection drops — killed client, network partition — every session it
// opened is cancelled so its budget reservation is released.
type Server struct {
	e *Engine

	mu     sync.Mutex
	lis    net.Listener
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// NewServer wraps a serving engine for network access.
func NewServer(e *Engine) *Server {
	return &Server{e: e, conns: make(map[net.Conn]struct{})}
}

// Engine returns the wrapped serving engine.
func (sv *Server) Engine() *Engine { return sv.e }

// Serve accepts connections on lis until Close (or a listener error) and
// handles each on its own goroutine. It returns nil after Close.
func (sv *Server) Serve(lis net.Listener) error {
	sv.mu.Lock()
	if sv.closed {
		sv.mu.Unlock()
		lis.Close()
		return ErrClosed
	}
	sv.lis = lis
	sv.mu.Unlock()
	for {
		conn, err := lis.Accept()
		if err != nil {
			sv.mu.Lock()
			closed := sv.closed
			sv.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		sv.mu.Lock()
		if sv.closed {
			sv.mu.Unlock()
			conn.Close()
			return nil
		}
		sv.conns[conn] = struct{}{}
		sv.wg.Add(1)
		sv.mu.Unlock()
		go func() {
			defer sv.wg.Done()
			sv.handle(conn)
			sv.mu.Lock()
			delete(sv.conns, conn)
			sv.mu.Unlock()
		}()
	}
}

// Close stops accepting, drops every live connection (cancelling their
// sessions), and shuts the engine down. Idempotent.
func (sv *Server) Close() error {
	sv.mu.Lock()
	if sv.closed {
		sv.mu.Unlock()
		return nil
	}
	sv.closed = true
	lis := sv.lis
	for conn := range sv.conns {
		conn.Close()
	}
	sv.mu.Unlock()
	if lis != nil {
		lis.Close()
	}
	sv.wg.Wait()
	return sv.e.Close()
}

// connState is one connection's server-side state: a write lock serializing
// the pump goroutines onto the socket, and the sessions the connection owns.
type connState struct {
	conn net.Conn
	e    *Engine

	wmu sync.Mutex // serializes whole frames onto conn

	mu       sync.Mutex
	sessions map[uint64]*Session
	pumps    sync.WaitGroup
}

// handle runs one connection: reads frames until the peer goes away, then
// cancels everything the connection opened.
func (sv *Server) handle(conn net.Conn) {
	h := &connState{conn: conn, e: sv.e, sessions: make(map[uint64]*Session)}
	var buf []byte
	for {
		typ, payload, err := wire.ReadFrameReuse(conn, &buf)
		if err != nil {
			break
		}
		if err := h.dispatch(typ, payload); err != nil {
			break
		}
	}
	// Peer gone (or sent garbage): tear down every session this connection
	// owns so their reservations free up. The pumps drain and exit on the
	// closed update streams; their writes to the dead socket fail harmlessly.
	h.mu.Lock()
	owned := make([]*Session, 0, len(h.sessions))
	for _, s := range h.sessions {
		owned = append(owned, s)
	}
	h.mu.Unlock()
	for _, s := range owned {
		s.Cancel()
	}
	conn.Close()
	h.pumps.Wait()
}

func (h *connState) dispatch(typ byte, payload []byte) error {
	switch typ {
	case frOpen:
		o, err := decodeOpen(payload)
		if err != nil {
			return err
		}
		h.open(o)
		return nil
	case frCancel, frClose:
		sid, err := decodeSID(payload)
		if err != nil {
			return err
		}
		h.mu.Lock()
		s := h.sessions[sid]
		h.mu.Unlock()
		if s != nil {
			s.Cancel()
		}
		return nil
	default:
		return fmt.Errorf("serve: unexpected frame type 0x%02x", typ)
	}
}

// open admits a session for the connection and starts its estimate pump.
func (h *connState) open(o openReq) {
	s, err := h.e.Open(o.Query, SessionOptions{
		Tenant:           o.Tenant,
		Stream:           o.Stream,
		Mode:             core.Mode(o.Mode),
		Trials:           int(o.Trials),
		Slack:            math.Float64frombits(o.SlackBits),
		Seed:             o.Seed,
		Workers:          int(o.Workers),
		StateBudgetBytes: o.StateBudget,
	})
	if err != nil {
		code := codeError
		if errors.Is(err, ErrBudgetExhausted) {
			code = codeBudget
		}
		h.writeFrame(frOpenErr, appendStatus(nil, code, err.Error()))
		return
	}
	h.mu.Lock()
	h.sessions[s.ID()] = s
	h.pumps.Add(1)
	h.mu.Unlock()
	h.writeFrame(frOpenOK, appendOpenOK(nil, s.ID(), s.Batches(), s.State() == StateQueued))
	go h.pump(s)
}

// pump streams one session's estimates to the client, then its Done frame.
func (h *connState) pump(s *Session) {
	defer h.pumps.Done()
	var scratch []byte
	for s.Next() {
		p, err := appendEstimate(scratch[:0], s.ID(), s.Update())
		if err != nil {
			s.Cancel()
			break
		}
		scratch = p
		if err := h.writeFrame(frEstimate, p); err != nil {
			// Client unreachable: stop burning budget on its session.
			s.Cancel()
			break
		}
	}
	for s.Next() { // drain whatever remains after a send failure
	}
	code, msg := codeOK, ""
	switch err := s.Err(); {
	case errors.Is(err, ErrCancelled):
		code, msg = codeCancelled, err.Error()
	case err != nil:
		code, msg = codeError, err.Error()
	}
	h.writeFrame(frDone, appendDone(nil, s.ID(), code, msg))
	h.mu.Lock()
	delete(h.sessions, s.ID())
	h.mu.Unlock()
}

func (h *connState) writeFrame(typ byte, payload []byte) error {
	h.wmu.Lock()
	defer h.wmu.Unlock()
	return wire.WriteFrame(h.conn, typ, payload)
}

// ListenAndServe listens on addr and serves the engine until Close; the
// returned Server controls shutdown. Errors other than listen failures are
// reported through srv.Serve's goroutine-internal handling (connection errors
// tear down only their connection).
func ListenAndServe(addr string, e *Engine) (*Server, net.Addr, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, err
	}
	sv := NewServer(e)
	go func() {
		if err := sv.Serve(lis); err != nil && !errors.Is(err, io.EOF) {
			// Accept-loop failure: nothing to surface to; connections keep
			// draining and Close still works.
			_ = err
		}
	}()
	return sv, lis.Addr(), nil
}
