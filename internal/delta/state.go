// Package delta provides the operator-state machinery of the delta update
// algorithm (Section 4.2): the collections of tuples each online operator
// must remember between mini-batches, with snapshot/restore support for the
// failure-recovery protocol of Section 5.1, and byte accounting for the
// state-size experiments (Figures 9(b) and 10(c)).
//
// It also implements the classical delta update rules of Figure 1
// (rules.go), which iOLAP's algorithm subsumes on flat SPJA queries; the
// property tests in this package check that subsumption directly.
package delta

import (
	"iolap/internal/cluster"
	"iolap/internal/rel"
)

// Row is the unit of dataflow between online operators: a tuple and its
// bootstrap Poisson weight vector (nil for rows not derived from a streamed
// relation).
//
// A vector is a pure function of the streamed tuple it was drawn for, so a
// drawn W names its tuple in Tuple, which lets a holder drop W and redraw it
// (WeightMode). The vector a scan draws lives in a slab the scan reuses every
// batch: any row kept past its step must own its W, as a copy or as Tuple
// alone.
//
// A Row is an immutable value. Whoever builds a row allocates its Vals (or
// aliases a base-table tuple's, which the engine never writes either), and
// nobody writes Vals, Mult or W afterwards: uncertain attributes are lineage
// references resolved at use time (Section 6.2), so a remembered row never
// has to be rewritten. Operator state, snapshots, restores and the shared-
// state memo therefore hold the row headers they were handed and share the
// backing arrays; only the slice that holds the headers is private to its
// owner. TestStateSharesImmutableRows (internal/core) enforces it.
type Row struct {
	Vals []rel.Value
	Mult float64
	W    []float64
	// Tuple is 1 + the index of the streamed tuple whose drawn vector W is,
	// or 0 when W is nil, a product of two vectors, or not drawn by the
	// engine. A row with Tuple set and W nil holds its vector by index: its
	// holder redraws W before the row flows on.
	Tuple uint64
}

// Clone returns a row with a private copy of the values. Nothing needs one
// for safety (rows are immutable); core's regenerate calls it because the
// copy is the OPT1/HDA refresh cost it simulates.
func (r Row) Clone() Row {
	vals := make([]rel.Value, len(r.Vals))
	copy(vals, r.Vals)
	return Row{Vals: vals, Mult: r.Mult, W: r.W, Tuple: r.Tuple}
}

// ByIndex reports whether the row holds its weight vector by index alone.
func (r Row) ByIndex() bool { return r.W == nil && r.Tuple != 0 }

// SizeBytes estimates the row's memory footprint (weights counted: the paper
// ships bootstrap multiplicity columns with each tuple; a row that holds its
// vector by index counts the 8-byte index instead).
func (r Row) SizeBytes() int {
	n := 24 + 8*len(r.W)
	if r.ByIndex() {
		n += 8
	}
	for _, v := range r.Vals {
		n += v.SizeBytes()
	}
	return n
}

// JoinRows returns l ⋈ r: the concatenated values, the product of the
// multiplicities and of the weight vectors (CombineWeights). The result
// names the tuple of the one side that carries weights; when that side holds
// its vector by index, the result does too, and its builder redraws it. A
// row held by index may meet only a weight-free row.
func JoinRows(l, r Row) Row {
	vals := make([]rel.Value, 0, len(l.Vals)+len(r.Vals))
	vals = append(vals, l.Vals...)
	vals = append(vals, r.Vals...)
	out := Row{Vals: vals, Mult: l.Mult * r.Mult, W: CombineWeights(l.W, r.W)}
	lw, rw := l.W != nil || l.ByIndex(), r.W != nil || r.ByIndex()
	switch {
	case (l.ByIndex() && rw) || (r.ByIndex() && lw):
		panic("delta: a row held by index joined with a weighted row")
	case lw && !rw:
		out.Tuple = l.Tuple
	case rw && !lw:
		out.Tuple = r.Tuple
	}
	return out
}

// WeightChunk hands out owned copies of weight vectors, carved from one
// allocation: a holder that keeps a step's rows sizes one chunk for all of
// them.
type WeightChunk struct{ w []float64 }

// NewWeightChunk returns a chunk that holds floats weights in all; Own may
// carve no more.
func NewWeightChunk(floats int) WeightChunk {
	return WeightChunk{w: make([]float64, floats)}
}

// Own returns r with W copied into the chunk (r itself when W is nil).
func (c *WeightChunk) Own(r Row) Row {
	if r.W == nil {
		return r
	}
	k := copy(c.w, r.W)
	r.W, c.w = c.w[:k:k], c.w[k:]
	return r
}

// CombineWeights multiplies two Poisson weight vectors element-wise; nil
// means "all ones" (non-streamed provenance) and is absorbed. Two non-nil
// vectors must be equally long: every weight vector of a plan holds one
// weight per bootstrap trial, so a shorter b is a bug, and it panics (index
// out of range) rather than defaulting the missing weights to 1.
func CombineWeights(a, b []float64) []float64 {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	out := make([]float64, len(a))
	for i := range a {
		out[i] = a[i] * b[i]
	}
	return out
}

// RowSet is an ordered collection of rows — the generic operator state (a
// select's non-deterministic set U_i, a sink's pending set, an aggregate's
// lineage rows).
type RowSet struct {
	Rows []Row
}

// Add appends a row.
func (s *RowSet) Add(r Row) { s.Rows = append(s.Rows, r) }

// Len returns the number of rows.
func (s *RowSet) Len() int { return len(s.Rows) }

// SizeBytes estimates the state footprint.
func (s *RowSet) SizeBytes() int {
	n := 24
	for _, r := range s.Rows {
		n += r.SizeBytes()
	}
	return n
}

// Snapshot copies the row headers into a slice of the snapshot's own: the
// rows are immutable and shared, but the live slice is not — a SELECT
// compacts its set in place.
func (s *RowSet) Snapshot() *RowSet {
	return &RowSet{Rows: append([]Row(nil), s.Rows...)}
}

// Restore replaces the contents with a snapshot's, into the live slice's own
// backing array; the snapshot is left untouched and can be restored again.
func (s *RowSet) Restore(snap *RowSet) {
	s.Rows = append(s.Rows[:0], snap.Rows...)
}

// storeShards is the fixed internal shard count of a HashStore. A key lives
// in exactly one shard (by FNV-1a of its encoding), which lets AddBatch give
// each shard to one worker while preserving per-key insertion order. The
// shard is also the spill unit: eviction moves one whole shard's hot rows to
// that shard's spill file.
const storeShards = 16

// shard is one of the 16 key-space partitions of a HashStore. Rows for a key
// live as an on-disk prefix (spilled, in run order) followed by an in-memory
// suffix (hot, in insertion order); eviction moves the entire hot suffix to
// disk, so the prefix/suffix split is the only invariant reads rely on.
type shard struct {
	hot     map[string][]Row
	spilled map[string][]spillRef // nil until the shard first spills
	mem     int                   // resident bytes of hot rows
	disk    int                   // logical bytes of spilled rows
	onDisk  int                   // spilled row count
	lastAdd int                   // policy epoch of the last insert (coldness)
}

// HashStore is a join side's accumulated certain rows, hashed by join key
// (Section 4.2's JOIN state). Insertion order is preserved per key for
// deterministic replay. Internally the key space is split into a fixed
// number of shards so batch builds can run partition-parallel and eviction
// can spill cold shards wholesale.
type HashStore struct {
	keys   []int // key column indexes
	mode   WeightMode
	shards [storeShards]shard
	n      int
	size   int           // logical bytes of all rows, hot or spilled
	sp     *spillBackend // nil for memory-only stores
}

// WeightMode says how a HashStore keeps its rows' weight vectors. The slab a
// vector was drawn into is reused by the next batch, so a store whose rows
// outlive their step must own them.
type WeightMode uint8

const (
	// KeepWeights keeps each row as handed in: for a store that dies with
	// its rows' step (a join's per-batch build).
	KeepWeights WeightMode = iota
	// CopyWeights copies the vectors of each AddBatch into one chunk: for a
	// store that is read every batch.
	CopyWeights
	// IndexWeights drops every drawn vector and keeps its tuple (Row.Tuple),
	// from which whoever reads the row redraws it; any other vector is
	// copied as under CopyWeights. For a store that only the other side's
	// new rows probe.
	IndexWeights
)

// NewHashStore builds a store hashing on the given column indexes, which
// keeps its rows as handed in (KeepWeights).
func NewHashStore(keyCols []int) *HashStore { return NewStateStore(keyCols, KeepWeights) }

// NewStateStore builds a store that keeps its rows' weights by mode.
func NewStateStore(keyCols []int, mode WeightMode) *HashStore {
	h := &HashStore{keys: keyCols, mode: mode}
	for i := range h.shards {
		h.shards[i].hot = make(map[string][]Row)
	}
	return h
}

// own returns rows as the store keeps them (WeightMode): the rows themselves
// under KeepWeights, or when no row carries a vector; otherwise a header
// slice of the store's own whose copied vectors share one chunk.
func (h *HashStore) own(rows []Row) []Row {
	if h.mode == KeepWeights {
		return rows
	}
	weighted, floats := false, 0
	for _, r := range rows {
		weighted = weighted || r.W != nil
		if h.mode == CopyWeights || r.Tuple == 0 {
			floats += len(r.W)
		}
	}
	if !weighted {
		return rows
	}
	out := make([]Row, len(rows))
	c := NewWeightChunk(floats)
	for i, r := range rows {
		if h.mode == IndexWeights && r.Tuple != 0 {
			r.W = nil
		}
		out[i] = c.Own(r)
	}
	return out
}

// shardOf is the FNV-1a hash of a key's encoding, reduced to a shard. It
// takes the encoded string and a probe's stack buffer alike, without a copy.
func shardOf[K ~string | ~[]byte](key K) int {
	var f uint64 = 0xcbf29ce484222325
	for i := 0; i < len(key); i++ {
		f ^= uint64(key[i])
		f *= 0x100000001b3
	}
	return int(f % storeShards)
}

// add inserts a row the store already owns (AddBatch).
func (h *HashStore) add(r Row) {
	k := rel.EncodeKey(r.Vals, h.keys)
	h.addKeyed(shardOf(k), k, r)
}

// addKeyed inserts a pre-hashed row. The caller must own shard s (the
// sequential path trivially does; AddBatch gives each shard to one worker).
func (h *HashStore) addKeyed(s int, k string, r Row) {
	sh := &h.shards[s]
	sh.hot[k] = append(sh.hot[k], r)
	sz := r.SizeBytes()
	sh.mem += sz
	if h.sp != nil {
		sh.lastAdd = h.sp.policy.epoch
	}
	h.n++
	h.size += sz
}

// AddBatch inserts a slice of rows, their weights kept by the store's
// WeightMode. clone copies each row's values first; no engine call sets it
// (rows are immutable, the store shares them) and the parameter survives only
// because bench/probes.go calls this signature. With a multi-worker pool the
// build runs partition-parallel: keys are encoded chunk-parallel, rows are
// bucketed by shard in input order, and one worker owns each shard — so every
// key's row list ends up in exactly the order a one-by-one insert would
// produce, and the resulting store is indistinguishable from the sequential
// build.
func (h *HashStore) AddBatch(rows []Row, clone bool, pool *cluster.Pool) {
	rows = h.own(rows)
	if pool == nil || pool.Workers() == 1 || len(rows) < storeShards {
		for _, r := range rows {
			if clone {
				r = r.Clone()
			}
			h.add(r)
		}
		return
	}
	keys := make([]string, len(rows))
	pool.Span(len(rows), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			keys[i] = rel.EncodeKey(rows[i].Vals, h.keys)
		}
	})
	var byShard [storeShards][]int32
	for i, k := range keys {
		s := shardOf(k)
		byShard[s] = append(byShard[s], int32(i))
	}
	var ns, sizes [storeShards]int
	// Shard row counts are the size hints: with skewed keys a few shards
	// hold most of the batch, and the hints give each big shard a cut of its
	// own, so the pool's workers claim them separately instead of one
	// worker taking a run of them.
	pool.MapSized(storeShards,
		func(s int) int { return len(byShard[s]) },
		func(s int) {
			if len(byShard[s]) == 0 {
				return
			}
			sh := &h.shards[s]
			for _, i := range byShard[s] {
				r := rows[i]
				if clone {
					r = r.Clone()
				}
				sh.hot[keys[i]] = append(sh.hot[keys[i]], r)
				ns[s]++
				sizes[s] += r.SizeBytes()
			}
			sh.mem += sizes[s]
			if h.sp != nil {
				sh.lastAdd = h.sp.policy.epoch
			}
		})
	for s := 0; s < storeShards; s++ {
		h.n += ns[s]
		h.size += sizes[s]
	}
}

// Probe returns the rows matching the key columns of probe (resolved through
// the probe-side key indexes). Read-only: safe for concurrent use while no
// AddBatch/Restore/spill is in flight (spill file reads are positional).
// When part of the key's rows were evicted, Probe reads them back
// transparently; a spill-file read failure panics, because spill files are
// process-local scratch whose loss is unrecoverable within the process — the
// engine's §5.1 snapshot/replay handles process-level failures.
func (h *HashStore) Probe(probeVals []rel.Value, probeKeys []int) []Row {
	// Encode the probe key into a stack buffer: the map accesses index by
	// string(buf), which the compiler compiles to a no-copy lookup, so a
	// probe allocates nothing unless it reads spilled rows.
	var kb [96]byte
	buf := rel.EncodeKeyInto(kb[:0], probeVals, probeKeys)
	s := shardOf(buf)
	sh := &h.shards[s]
	hot := sh.hot[string(buf)]
	if refs := sh.spilled[string(buf)]; len(refs) > 0 {
		return append(h.sp.readRefs(nil, s, refs), hot...)
	}
	return hot
}

// Each visits all stored rows, spilled prefix before hot suffix per key.
func (h *HashStore) Each(fn func(Row)) {
	for s := range h.shards {
		sh := &h.shards[s]
		for k, refs := range sh.spilled {
			if len(refs) == 0 {
				continue
			}
			for _, r := range h.sp.readRefs(nil, s, refs) {
				fn(r)
			}
			for _, r := range sh.hot[k] {
				fn(r)
			}
		}
		for k, rows := range sh.hot {
			if len(sh.spilled[k]) > 0 {
				continue // already visited above
			}
			for _, r := range rows {
				fn(r)
			}
		}
	}
}

// Len returns the number of stored rows.
func (h *HashStore) Len() int { return h.n }

// SizeBytes estimates the logical state footprint — all rows whether hot or
// spilled, so the Figure 9(b)/10(c) state metric is budget-invariant.
func (h *HashStore) SizeBytes() int { return 48 + h.size }

// MemBytes estimates the resident (hot, in-memory) footprint only: the
// quantity the SpillPolicy budgets.
func (h *HashStore) MemBytes() int {
	n := 48
	for s := range h.shards {
		n += h.shards[s].mem
	}
	return n
}

// SpilledRows returns how many rows currently live on disk.
func (h *HashStore) SpilledRows() int {
	n := 0
	for s := range h.shards {
		n += h.shards[s].onDisk
	}
	return n
}

// HashSnap is a truncation snapshot of a HashStore. The store is
// append-only and rows are immutable, so a snapshot
// needs only the per-key TOTAL row counts — spilled prefix plus hot suffix —
// O(keys) instead of O(rows), which keeps the controller's per-batch
// snapshots cheap even when a join caches an entire fact side. Counting
// totals rather than in-memory lengths makes snapshots location-independent:
// eviction between Snapshot and Restore moves rows to disk but never
// reorders the per-key sequence, so the counts still identify the prefix to
// keep.
type HashSnap struct {
	perKey map[string]int
	n      int
	size   int
}

// Snapshot records the current per-key total row counts.
func (h *HashStore) Snapshot() *HashSnap {
	s := &HashSnap{perKey: make(map[string]int), n: h.n, size: h.size}
	for i := range h.shards {
		sh := &h.shards[i]
		for k, rows := range sh.hot {
			s.perKey[k] = len(rows)
		}
		for k, refs := range sh.spilled {
			n := 0
			for _, ref := range refs {
				n += ref.n
			}
			if n > 0 {
				s.perKey[k] += n
			}
		}
	}
	return s
}

// Restore truncates the store back to a snapshot taken from it. Only valid
// for snapshots of this store's own past (rows are never mutated in place,
// so truncation recovers the exact earlier contents). Per key, the first
// `want` rows of the spilled-then-hot sequence are kept: whole spill runs
// where possible, a run straddling the cut is trimmed at a row boundary by
// decoding its length prefixes, and the hot remainder is truncated last.
// Spill files shrink to the highest surviving run end — as hygiene, not
// correctness: the run index is the source of truth and orphaned bytes past
// the logical end are simply overwritten by the next spill.
func (h *HashStore) Restore(snap *HashSnap) {
	for s := range h.shards {
		h.restoreShard(s, snap)
	}
	h.n = snap.n
	h.size = snap.size
}

func (h *HashStore) restoreShard(s int, snap *HashSnap) {
	sh := &h.shards[s]
	var maxEnd int64
	for k, refs := range sh.spilled {
		want := snap.perKey[k] // 0 when the key postdates the snapshot
		kept := refs[:0]
		for _, ref := range refs {
			switch {
			case want >= ref.n:
				kept = append(kept, ref)
				want -= ref.n
			case want > 0:
				kept = append(kept, h.sp.trimRef(s, ref, want))
				want = 0
			}
		}
		if len(kept) == 0 {
			delete(sh.spilled, k)
		} else {
			sh.spilled[k] = kept
			if end := kept[len(kept)-1].off + kept[len(kept)-1].bytes; end > maxEnd {
				maxEnd = end
			}
		}
		// Hot rows survive only past the full spilled prefix.
		if hot := sh.hot[k]; len(hot) > 0 {
			if want < len(hot) {
				if want == 0 {
					delete(sh.hot, k)
				} else {
					sh.hot[k] = hot[:want]
				}
			}
		}
	}
	for k, rows := range sh.hot {
		if len(sh.spilled[k]) > 0 {
			continue // trimmed above
		}
		want, ok := snap.perKey[k]
		if !ok {
			delete(sh.hot, k)
			continue
		}
		if want < len(rows) {
			sh.hot[k] = rows[:want]
		}
	}
	// Recompute the derived accounting from the surviving contents.
	sh.mem = 0
	for _, rows := range sh.hot {
		for _, r := range rows {
			sh.mem += r.SizeBytes()
		}
	}
	sh.disk, sh.onDisk = 0, 0
	for _, refs := range sh.spilled {
		for _, ref := range refs {
			sh.disk += int(ref.bytes)
			sh.onDisk += ref.n
		}
	}
	if h.sp != nil {
		h.sp.truncateTo(s, maxEnd)
	}
}
