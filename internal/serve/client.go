package serve

import (
	"errors"
	"fmt"
	"net"
	"sync"

	"iolap/internal/wire"
)

// Client speaks the session protocol to a serving endpoint. One client
// multiplexes many remote sessions over one connection; Open is serialized
// (the protocol answers opens in order) while estimate streams of different
// sessions interleave freely.
type Client struct {
	conn net.Conn

	wmu sync.Mutex // serializes whole frames onto conn

	openMu sync.Mutex      // one outstanding Open at a time
	openCh chan openResult // the reader's answer to the outstanding Open

	mu       sync.Mutex
	sessions map[uint64]*ClientSession
	readErr  error
	closed   bool
	readerWG sync.WaitGroup
}

type openResult struct {
	s   *ClientSession
	err error
}

// Dial connects to a serving endpoint.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewClient(conn), nil
}

// NewClient wraps an established connection (e.g. a net.Pipe end in tests).
func NewClient(conn net.Conn) *Client {
	c := &Client{
		conn:     conn,
		openCh:   make(chan openResult, 1),
		sessions: make(map[uint64]*ClientSession),
	}
	c.readerWG.Add(1)
	go c.readLoop()
	return c
}

// Close drops the connection; the server cancels every session this client
// opened, releasing their budget. Idempotent.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	err := c.conn.Close()
	c.readerWG.Wait()
	return err
}

// Open admits a remote session and returns its estimate stream. The returned
// error unwraps to ErrBudgetExhausted when admission was refused at the
// tenant budget boundary.
func (c *Client) Open(query string, opts SessionOptions) (*ClientSession, error) {
	c.openMu.Lock()
	defer c.openMu.Unlock()
	if err := c.writeFrame(frOpen, appendOpen(nil, query, opts)); err != nil {
		return nil, err
	}
	res, ok := <-c.openCh
	if !ok {
		return nil, c.connErr()
	}
	if res.err != nil {
		return nil, res.err
	}
	return res.s, nil
}

func (c *Client) connErr() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.readErr != nil {
		return c.readErr
	}
	return errors.New("serve: connection closed")
}

// readLoop routes incoming frames: open answers to the waiting Open call,
// estimates and dones to their session.
func (c *Client) readLoop() {
	defer c.readerWG.Done()
	var err error
	for {
		var typ byte
		var payload []byte
		// No buffer reuse: decoded updates alias nothing, but the open
		// results and done messages are tiny and estimates dominate; a fresh
		// payload per frame keeps decode free of aliasing rules.
		typ, payload, err = wire.ReadFrame(c.conn)
		if err != nil {
			break
		}
		if err = c.route(typ, payload); err != nil {
			break
		}
	}
	c.mu.Lock()
	c.readErr = err
	sessions := make([]*ClientSession, 0, len(c.sessions))
	for _, s := range c.sessions {
		sessions = append(sessions, s)
	}
	c.sessions = map[uint64]*ClientSession{}
	c.mu.Unlock()
	for _, s := range sessions {
		s.finish(fmt.Errorf("serve: connection lost: %w", err))
	}
	close(c.openCh)
}

func (c *Client) route(typ byte, payload []byte) error {
	switch typ {
	case frOpenOK:
		sid, batches, _, err := decodeOpenOK(payload)
		if err != nil {
			return err
		}
		// Register the session here, before any later frame is read: the
		// server may stream estimates (or Done) immediately after OpenOK, and
		// routing must already know the sid or those frames would be lost.
		s := &ClientSession{
			c:       c,
			id:      sid,
			batches: batches,
			updates: make(chan *Update, batches+1),
		}
		c.mu.Lock()
		c.sessions[sid] = s
		c.mu.Unlock()
		c.openCh <- openResult{s: s}
		return nil
	case frOpenErr:
		code, msg, err := decodeStatus(payload)
		if err != nil {
			return err
		}
		oerr := errors.New(msg)
		if code == codeBudget {
			oerr = fmt.Errorf("%w: %s", ErrBudgetExhausted, msg)
		}
		c.openCh <- openResult{err: oerr}
		return nil
	case frEstimate:
		sid, u, err := decodeEstimate(payload)
		if err != nil {
			return err
		}
		c.mu.Lock()
		s := c.sessions[sid]
		c.mu.Unlock()
		if s == nil {
			return nil // session already closed locally; drop late estimates
		}
		select {
		case s.updates <- u:
		default:
			// The channel holds a full pass; overflow means a protocol bug,
			// not a slow consumer. Fail loudly rather than block the reader.
			return fmt.Errorf("serve: session %d estimate overflow", sid)
		}
		return nil
	case frDone:
		sid, code, msg, err := decodeDone(payload)
		if err != nil {
			return err
		}
		c.mu.Lock()
		s := c.sessions[sid]
		delete(c.sessions, sid)
		c.mu.Unlock()
		if s == nil {
			return nil
		}
		switch code {
		case codeOK:
			s.finish(nil)
		case codeCancelled:
			s.finish(ErrCancelled)
		default:
			s.finish(errors.New(msg))
		}
		return nil
	default:
		return fmt.Errorf("serve: unexpected frame type 0x%02x", typ)
	}
}

func (c *Client) writeFrame(typ byte, payload []byte) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	return wire.WriteFrame(c.conn, typ, payload)
}

// ClientSession is the remote mirror of Session: the same Next / Update /
// Err / Cancel / Close cursor over an estimate stream, fed by the client's
// read loop. Estimates arrive bit-identical to a local session's.
type ClientSession struct {
	c       *Client
	id      uint64
	batches int

	updates chan *Update
	cur     *Update

	mu       sync.Mutex
	err      error
	finished bool
}

// ID returns the server-assigned session id.
func (s *ClientSession) ID() uint64 { return s.id }

// Batches returns the shared schedule's mini-batch count.
func (s *ClientSession) Batches() int { return s.batches }

// Next blocks for the next estimate; false when the stream ends (see Err).
func (s *ClientSession) Next() bool {
	u, ok := <-s.updates
	if !ok {
		return false
	}
	s.cur = u
	return true
}

// Update returns the current estimate.
func (s *ClientSession) Update() *Update { return s.cur }

// Err returns the terminal error: nil after a completed pass, ErrCancelled
// after cancellation, the transport error if the connection died. Valid once
// Next has returned false.
func (s *ClientSession) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Cancel asks the server to tear the session down; the stream still ends
// with a Done frame (Next returns false, Err reports ErrCancelled).
func (s *ClientSession) Cancel() { s.c.writeFrame(frCancel, appendSID(nil, s.id)) }

// Close cancels the session and drains any undelivered estimates.
func (s *ClientSession) Close() error {
	s.Cancel()
	for s.Next() {
	}
	return nil
}

// finish terminates the stream with err (first finish wins).
func (s *ClientSession) finish(err error) {
	s.mu.Lock()
	if s.finished {
		s.mu.Unlock()
		return
	}
	s.finished = true
	s.err = err
	s.mu.Unlock()
	close(s.updates)
}
