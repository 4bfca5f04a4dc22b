// FaultConn: deterministic connection-fault injection, the transport twin of
// storage.FaultFS. Tests schedule "the Nth read/write/close on this conn
// fails", pointed at either end of a loopback or TCP pair, to prove the
// coordinator detects the death, re-dispatches the dead worker's spans, and
// still produces bit-identical results.
package dist

import (
	"errors"
	"net"
	"sync"
	"time"
)

// ErrInjected is the error every injected fault returns.
var ErrInjected = errors.New("dist: injected connection fault")

// FaultConn wraps a conn and fails configured operations by ordinal (1-based,
// 0 = never). With KillOnFault set, a fault also closes the underlying conn,
// so the peer observes the death too — the closest stdlib-only approximation
// of a worker process dying mid-batch.
type FaultConn struct {
	net.Conn

	mu                    sync.Mutex
	reads, writes, closes int
	failReadAt            int
	failWriteAt           int
	failCloseAt           int
	killOnFault           bool
	writeDelay            time.Duration
	delayWriteFrom        int
}

// NewFaultConn wraps inner with no faults scheduled.
func NewFaultConn(inner net.Conn) *FaultConn { return &FaultConn{Conn: inner} }

// FailReadAt makes the nth Read (1-based) fail. 0 disables.
func (c *FaultConn) FailReadAt(n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.failReadAt = n
}

// FailWriteAt makes the nth Write (1-based) fail. 0 disables.
func (c *FaultConn) FailWriteAt(n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.failWriteAt = n
}

// FailCloseAt makes the nth Close (1-based) fail (the underlying conn is
// still closed). 0 disables.
func (c *FaultConn) FailCloseAt(n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.failCloseAt = n
}

// DelayWritesFrom makes every Write from the nth on (1-based) sleep d before
// touching the underlying conn: a slow-but-alive peer, as opposed to a dead
// one. The peer's read deadline keeps running during the sleep, so this
// exercises the coordinator's deadline escalation without any fault firing.
func (c *FaultConn) DelayWritesFrom(n int, d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.delayWriteFrom = n
	c.writeDelay = d
}

// KillOnFault makes read/write faults also close the underlying conn.
func (c *FaultConn) KillOnFault(on bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.killOnFault = on
}

// Ops returns how many reads, writes and closes have been attempted.
func (c *FaultConn) Ops() (reads, writes, closes int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.reads, c.writes, c.closes
}

func (c *FaultConn) Read(p []byte) (int, error) {
	c.mu.Lock()
	c.reads++
	hit := c.failReadAt != 0 && c.reads == c.failReadAt
	kill := hit && c.killOnFault
	c.mu.Unlock()
	if hit {
		if kill {
			c.Conn.Close()
		}
		return 0, ErrInjected
	}
	return c.Conn.Read(p)
}

func (c *FaultConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.writes++
	hit := c.failWriteAt != 0 && c.writes == c.failWriteAt
	kill := hit && c.killOnFault
	delay := time.Duration(0)
	if c.delayWriteFrom != 0 && c.writes >= c.delayWriteFrom {
		delay = c.writeDelay
	}
	c.mu.Unlock()
	if delay > 0 {
		time.Sleep(delay)
	}
	if hit {
		if kill {
			c.Conn.Close()
		}
		return 0, ErrInjected
	}
	return c.Conn.Write(p)
}

func (c *FaultConn) Close() error {
	c.mu.Lock()
	c.closes++
	hit := c.failCloseAt != 0 && c.closes == c.failCloseAt
	c.mu.Unlock()
	err := c.Conn.Close()
	if hit {
		return ErrInjected
	}
	return err
}
