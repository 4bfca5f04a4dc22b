package share

import (
	"fmt"
	"sync"
)

// Sized is implemented by shared values that can report their resident byte
// footprint. The cache uses it to account BytesSaved on hits and LiveBytes
// for live entries; values that do not implement it count as zero bytes.
type Sized interface {
	SharedBytes() int64
}

// Stats is a point-in-time snapshot of cache activity.
type Stats struct {
	Hits       int64 // Acquire calls satisfied by an existing entry
	Misses     int64 // Acquire calls that ran the build callback
	BytesSaved int64 // sum of SharedBytes() at each hit — state NOT rebuilt
	Evictions  int64 // entries removed when their refcount hit zero
	Live       int64 // entries currently held by at least one session
	LiveBytes  int64 // sum of SharedBytes() over live entries
	// PeakLiveBytes is the high-water LiveBytes mark over the cache's
	// lifetime — recorded at each acquisition, so it is deterministic even
	// when entries are evicted before an observer samples LiveBytes.
	PeakLiveBytes int64
}

// Cache is a refcounted shared-state cache keyed by plan fingerprints.
//
// Acquire either returns the existing value for a key (bumping its
// refcount) or runs the build callback exactly once — concurrent acquirers
// of the same key block until the first builder finishes, so a cohort
// opening N overlapping sessions builds the state once. Every successful
// Acquire returns a release func; when the last holder releases, the entry
// is evicted (refcount-gated eviction — state never outlives its sessions).
//
// The cache itself is only touched at session Open/Close; per-batch reads
// of the shared values are lock-free by construction (owners freeze or
// step the state under their own discipline, see internal/core).
type Cache struct {
	mu      sync.Mutex
	entries map[string]*entry

	hits       int64
	misses     int64
	bytesSaved int64
	evictions  int64
	peakLive   int64
}

type entry struct {
	key   string
	refs  int
	ready chan struct{} // closed when val/err are set
	val   any
	err   error
}

// NewCache returns an empty cache.
func NewCache() *Cache {
	return &Cache{entries: make(map[string]*entry)}
}

// Acquire returns the shared value for key, building it with build if no
// live entry exists. hit reports whether an existing entry was reused.
// On success release must be called exactly once when the holder is done
// with the value (calling it more than once is safe — extra calls are
// no-ops). If build fails the entry is removed, the error is returned to
// every waiter, and nothing needs releasing. If build panics the entry is
// removed the same way, waiters get an error, and the panic continues on
// the builder's goroutine.
func (c *Cache) Acquire(key string, build func() (any, error)) (val any, release func(), hit bool, err error) {
	c.mu.Lock()
	e, ok := c.entries[key]
	if ok {
		e.refs++
		c.mu.Unlock()
		<-e.ready
		if e.err != nil {
			// Builder failed after we joined; drop our ref (the builder
			// already removed the entry from the map).
			return nil, nil, false, e.err
		}
		c.mu.Lock()
		c.hits++
		if s, ok := e.val.(Sized); ok {
			c.bytesSaved += s.SharedBytes()
		}
		c.notePeakLocked()
		c.mu.Unlock()
		return e.val, c.releaser(e), true, nil
	}
	e = &entry{key: key, refs: 1, ready: make(chan struct{})}
	c.entries[key] = e
	c.misses++
	c.mu.Unlock()

	// Build outside the cache lock: builds compile plans and replay scans,
	// and must not serialize unrelated keys behind each other.
	built := false
	defer func() {
		if !built {
			r := recover()
			c.fail(e, fmt.Errorf("share: building %q panicked: %v", key, r))
			panic(r)
		}
	}()
	v, err := build()
	built = true
	if err != nil {
		c.fail(e, err)
		return nil, nil, false, err
	}
	c.mu.Lock()
	e.val = v
	close(e.ready)
	c.notePeakLocked()
	c.mu.Unlock()
	return v, c.releaser(e), false, nil
}

// fail ends e's build with err: the entry leaves the map, so the next Acquire
// builds again, and every waiter wakes to err.
func (c *Cache) fail(e *entry, err error) {
	c.mu.Lock()
	delete(c.entries, e.key)
	e.err = err
	close(e.ready)
	c.mu.Unlock()
}

// releaser returns the once-guarded refcount decrement for e.
func (c *Cache) releaser(e *entry) func() {
	var once sync.Once
	return func() {
		once.Do(func() {
			c.mu.Lock()
			e.refs--
			if e.refs <= 0 {
				// Refcount-gated eviction: only remove if this entry is
				// still the one in the map (a failed build already
				// removed itself).
				if cur, ok := c.entries[e.key]; ok && cur == e {
					delete(c.entries, e.key)
					c.evictions++
				}
			}
			c.mu.Unlock()
		})
	}
}

// liveBytesLocked sums SharedBytes over ready live entries.
func (c *Cache) liveBytesLocked() int64 {
	var n int64
	for _, e := range c.entries {
		select {
		case <-e.ready:
			if e.err == nil {
				if s, ok := e.val.(Sized); ok {
					n += s.SharedBytes()
				}
			}
		default:
			// Still building: footprint unknown, count zero.
		}
	}
	return n
}

func (c *Cache) notePeakLocked() {
	if lb := c.liveBytesLocked(); lb > c.peakLive {
		c.peakLive = lb
	}
}

// Stats returns a snapshot of cache counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits:          c.hits,
		Misses:        c.misses,
		BytesSaved:    c.bytesSaved,
		Evictions:     c.evictions,
		Live:          int64(len(c.entries)),
		LiveBytes:     c.liveBytesLocked(),
		PeakLiveBytes: c.peakLive,
	}
}
