// Spill-to-disk for HashStore shards, so join state can exceed RAM: each
// shard owns one append-only spill file of length-prefixed rows (the codec
// in internal/storage), and a byte-budget SpillPolicy evicts the coldest,
// largest hot shards wholesale when the resident footprint crosses the
// budget. Correctness hinges on two invariants:
//
//  1. Per key, spilled rows are a strict prefix of the insertion sequence:
//     eviction always moves a shard's entire hot suffix, so a key's rows on
//     disk precede its rows in memory and per-key order — the property the
//     bit-identical replay oracle depends on — survives any spill schedule.
//  2. A run is indexed only after its bytes are written AND synced. A write
//     or sync failure leaves the hot map untouched (memory stays
//     authoritative) and at worst dead bytes past the logical file end,
//     which the next spill overwrites; the run index, not the file length,
//     is the source of truth.
package delta

import (
	"fmt"
	"sort"

	"iolap/internal/cluster"
	"iolap/internal/storage"
)

// spillRef locates one on-disk run: n rows encoded in bytes bytes starting
// at off in the owning shard's spill file. The run is either raw spill rows
// or one flate-compressed chunk (self-describing by storage.ChunkCompressed;
// a raw row can never start with the chunk magic byte). A ref may address
// fewer rows than its chunk holds (compressed-run trim): readRefs decodes
// exactly n rows and ignores the remainder.
type spillRef struct {
	off   int64
	bytes int64
	n     int
}

// spillCompressMin is the per-key run size below which spill chunks are
// written raw: tiny runs don't amortize the flate stream overhead, and the
// deflate call costs more than the bytes it saves.
const spillCompressMin = 256

// spillBackend is a registered store's connection to its SpillPolicy: the
// per-shard spill files, lazily created, plus the logical append pointer for
// each (the file may physically be longer after a failed write; writes are
// positional so the excess is harmless).
type spillBackend struct {
	policy   *SpillPolicy
	id       int
	files    [storeShards]storage.File
	names    [storeShards]string
	fileSize [storeShards]int64
}

func (sp *spillBackend) file(s int) (storage.File, error) {
	if sp.files[s] != nil {
		return sp.files[s], nil
	}
	name := fmt.Sprintf("store%03d-shard%02d.spill", sp.id, s)
	f, err := sp.policy.fs.Create(name)
	if err != nil {
		return nil, err
	}
	sp.files[s] = f
	sp.names[s] = name
	return f, nil
}

// readRefs reads the runs back into rows, appending to dst. Failures panic:
// spill files are process-local scratch, and losing one mid-run is not
// recoverable inside the process (see Probe).
func (sp *spillBackend) readRefs(dst []Row, s int, refs []spillRef) []Row {
	f := sp.files[s]
	if dst == nil {
		total := 0
		for _, ref := range refs {
			total += ref.n
		}
		dst = make([]Row, 0, total)
	}
	for _, ref := range refs {
		buf := make([]byte, ref.bytes)
		if _, err := f.ReadAt(buf, ref.off); err != nil {
			panic(fmt.Sprintf("delta: spill scratch read failed: %v", err))
		}
		sp.policy.metrics.RecordSpillRead(len(buf))
		if storage.ChunkCompressed(buf) {
			var err error
			if buf, err = storage.ExpandChunk(buf); err != nil {
				panic(fmt.Sprintf("delta: spill scratch corrupt: %v", err))
			}
		}
		for i := 0; i < ref.n; i++ {
			vals, mult, w, n, err := storage.DecodeSpillRow(buf)
			if err != nil {
				panic(fmt.Sprintf("delta: spill scratch corrupt: %v", err))
			}
			dst = append(dst, Row{Vals: vals, Mult: mult, W: w})
			buf = buf[n:]
		}
	}
	return dst
}

// trimRef cuts a run down to its first m rows (0 < m < ref.n), walking the
// row length prefixes to find the byte boundary. Used by Restore when a
// snapshot cut falls inside a run (rows either side of the snapshot were
// evicted together).
func (sp *spillBackend) trimRef(s int, ref spillRef, m int) spillRef {
	buf := make([]byte, ref.bytes)
	if _, err := sp.files[s].ReadAt(buf, ref.off); err != nil {
		panic(fmt.Sprintf("delta: spill scratch read failed: %v", err))
	}
	sp.policy.metrics.RecordSpillRead(len(buf))
	if storage.ChunkCompressed(buf) {
		// A compressed run cannot be byte-trimmed; keep the chunk whole and
		// reduce the row count — readRefs decodes exactly n rows.
		return spillRef{off: ref.off, bytes: ref.bytes, n: m}
	}
	cut := 0
	for i := 0; i < m; i++ {
		n, err := storage.SpillRowSize(buf[cut:])
		if err != nil {
			panic(fmt.Sprintf("delta: spill scratch corrupt: %v", err))
		}
		cut += n
	}
	return spillRef{off: ref.off, bytes: int64(cut), n: m}
}

// truncateTo shrinks shard s's spill file to end after a Restore dropped the
// runs past it. Truncation is hygiene: errors are ignored because orphaned
// bytes past the logical end are unreachable (no ref points at them) and the
// next spill's positional write overwrites them.
func (sp *spillBackend) truncateTo(s int, end int64) {
	if sp.files[s] == nil || end >= sp.fileSize[s] {
		return
	}
	_ = sp.files[s].Truncate(end)
	sp.fileSize[s] = end
}

// spillShard evicts shard s's entire hot map to its spill file: rows are
// encoded per key in sorted key order (determinism — the run layout is a
// pure function of contents, never of map iteration), written at the
// logical end, synced, and only then indexed. On error the shard is
// unchanged and the caller may retry or surface the failure.
func (h *HashStore) spillShard(s int) error {
	sh := &h.shards[s]
	if h.sp == nil || len(sh.hot) == 0 {
		return nil
	}
	keys := make([]string, 0, len(sh.hot))
	for k := range sh.hot {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	type span struct {
		start, bytes, n int
	}
	spans := make([]span, len(keys))
	var buf, raw []byte
	var err error
	for i, k := range keys {
		start := len(buf)
		rows := sh.hot[k]
		raw = raw[:0]
		for _, r := range rows {
			raw, err = storage.AppendSpillRow(raw, r.Vals, r.Mult, r.W)
			if err != nil {
				return err
			}
		}
		// Per-key runs above the threshold are written as one compressed
		// chunk. Deterministic (fixed flate level over a pure function of
		// contents), so the run layout stays worker-invariant.
		buf = append(buf, storage.CompressChunk(raw, spillCompressMin)...)
		spans[i] = span{start: start, bytes: len(buf) - start, n: len(rows)}
	}
	f, err := h.sp.file(s)
	if err != nil {
		return err
	}
	base := h.sp.fileSize[s]
	if _, err := f.WriteAt(buf, base); err != nil {
		_ = f.Truncate(base) // hygiene; the run is not indexed
		return err
	}
	if err := f.Sync(); err != nil {
		_ = f.Truncate(base)
		return err
	}
	// Durable: commit the index and release the hot rows.
	if sh.spilled == nil {
		sh.spilled = make(map[string][]spillRef)
	}
	for i, k := range keys {
		sh.spilled[k] = append(sh.spilled[k], spillRef{
			off:   base + int64(spans[i].start),
			bytes: int64(spans[i].bytes),
			n:     spans[i].n,
		})
		sh.onDisk += spans[i].n
	}
	sh.disk += len(buf)
	sh.hot = make(map[string][]Row)
	sh.mem = 0
	h.sp.fileSize[s] = base + int64(len(buf))
	h.sp.policy.metrics.RecordSpillWrite(len(buf))
	return nil
}

// SpillPolicy holds the resident-byte budget for a set of HashStores and
// evicts shards to their spill files when the hot footprint exceeds it. A
// nil policy is valid everywhere and means "never spill". The policy is
// driven from the engine goroutine between batches; only reads (Probe)
// happen concurrently.
type SpillPolicy struct {
	budget  int64
	fs      storage.FS
	metrics *cluster.Metrics
	stores  []*HashStore
	epoch   int
}

// NewSpillPolicy budgets resident join-state bytes across the stores later
// Registered. budget <= 0 means a zero-byte budget: every enforcement
// spills all hot shards (the "force everything to disk" configuration the
// equivalence sweep exercises).
func NewSpillPolicy(budget int64, fs storage.FS, m *cluster.Metrics) *SpillPolicy {
	if budget < 0 {
		budget = 0
	}
	return &SpillPolicy{budget: budget, fs: fs, metrics: m}
}

// Register places a store under this policy's budget, enabling spill for it.
// Must be called before the store holds any rows. Nil-safe.
func (p *SpillPolicy) Register(h *HashStore) {
	if p == nil {
		return
	}
	h.sp = &spillBackend{policy: p, id: len(p.stores)}
	p.stores = append(p.stores, h)
}

// Advance sets the coldness epoch stamped on subsequent inserts — the
// engine calls it with the batch number, so "cold" means "not touched since
// an earlier batch". Deterministic across worker counts, unlike any
// clock-based recency.
func (p *SpillPolicy) Advance(epoch int) {
	if p != nil {
		p.epoch = epoch
	}
}

// MemBytes returns the resident footprint of all registered stores.
func (p *SpillPolicy) MemBytes() int64 {
	if p == nil {
		return 0
	}
	var t int64
	for _, h := range p.stores {
		t += int64(h.MemBytes())
	}
	return t
}

// SpilledRows returns the row count currently on disk across stores.
func (p *SpillPolicy) SpilledRows() int {
	if p == nil {
		return 0
	}
	n := 0
	for _, h := range p.stores {
		n += h.SpilledRows()
	}
	return n
}

// Enforce evicts hot shards — coldest epoch first, largest first within an
// epoch, store/shard index as the final tie-break, so the eviction schedule
// is identical at every worker count — until the resident footprint fits
// the budget or nothing evictable remains. An I/O error aborts enforcement;
// because failed spills leave their shard untouched, the engine treats it
// like any batch failure: restore a snapshot and replay.
func (p *SpillPolicy) Enforce() error {
	if p == nil {
		return nil
	}
	total := p.MemBytes()
	if total <= p.budget {
		return nil
	}
	type cand struct {
		h                        *HashStore
		store, shard, epoch, mem int
	}
	var cands []cand
	for si, h := range p.stores {
		for s := range h.shards {
			if h.shards[s].mem > 0 {
				cands = append(cands, cand{h, si, s, h.shards[s].lastAdd, h.shards[s].mem})
			}
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].epoch != cands[j].epoch {
			return cands[i].epoch < cands[j].epoch
		}
		if cands[i].mem != cands[j].mem {
			return cands[i].mem > cands[j].mem
		}
		if cands[i].store != cands[j].store {
			return cands[i].store < cands[j].store
		}
		return cands[i].shard < cands[j].shard
	})
	for _, c := range cands {
		if total <= p.budget {
			break
		}
		if err := c.h.spillShard(c.shard); err != nil {
			return fmt.Errorf("delta: spill store %d shard %d: %w", c.store, c.shard, err)
		}
		total -= int64(c.mem)
	}
	return nil
}

// Close closes and removes every spill file. The stores remain usable for
// their hot contents only; Close is for engine teardown.
func (p *SpillPolicy) Close() error {
	if p == nil {
		return nil
	}
	var first error
	for _, h := range p.stores {
		sp := h.sp
		if sp == nil {
			continue
		}
		for s := range sp.files {
			if sp.files[s] == nil {
				continue
			}
			if err := sp.files[s].Close(); err != nil && first == nil {
				first = err
			}
			if err := p.fs.Remove(sp.names[s]); err != nil && first == nil {
				first = err
			}
			sp.files[s] = nil
		}
	}
	p.stores = nil
	return first
}
