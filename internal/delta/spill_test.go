package delta

import (
	"errors"
	"fmt"
	"sort"
	"testing"

	"iolap/internal/cluster"
	"iolap/internal/rel"
	"iolap/internal/storage"
)

// keyInt builds a one-int-column row whose first column is the join key.
func keyInt(k, payload int) Row {
	return Row{Vals: []rel.Value{rel.Int(int64(k)), rel.Int(int64(payload))}, Mult: 1.5, W: []float64{1, 2}}
}

func probeKey(h *HashStore, k int) []Row {
	return h.Probe([]rel.Value{rel.Int(int64(k))}, []int{0})
}

func sameRows(t *testing.T, got, want []Row, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", label, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if len(g.Vals) != len(w.Vals) || g.Mult != w.Mult || len(g.W) != len(w.W) {
			t.Fatalf("%s: row %d shape mismatch: %+v vs %+v", label, i, g, w)
		}
		for j := range w.Vals {
			if !g.Vals[j].Equal(w.Vals[j]) {
				t.Fatalf("%s: row %d val %d = %v, want %v", label, i, j, g.Vals[j], w.Vals[j])
			}
		}
		for j := range w.W {
			if g.W[j] != w.W[j] {
				t.Fatalf("%s: row %d weight %d = %v, want %v", label, i, j, g.W[j], w.W[j])
			}
		}
	}
}

// newSpillStore returns a store registered with a zero-budget policy over a
// MemFS, plus the policy and its metrics.
func newSpillStore(t *testing.T, budget int64) (*HashStore, *SpillPolicy, *cluster.Metrics) {
	t.Helper()
	var m cluster.Metrics
	p := NewSpillPolicy(budget, storage.NewMemFS(), &m)
	h := NewHashStore([]int{0})
	p.Register(h)
	t.Cleanup(func() {
		if err := p.Close(); err != nil {
			t.Errorf("policy close: %v", err)
		}
	})
	return h, p, &m
}

// TestProbeTransparentAcrossSpill interleaves inserts and full evictions and
// checks that Probe and Each agree with a memory-only twin at every point:
// operators must not be able to tell whether state is resident.
func TestProbeTransparentAcrossSpill(t *testing.T) {
	h, p, m := newSpillStore(t, 0)
	twin := NewHashStore([]int{0})

	payload := 0
	addRound := func(epoch int, keys ...int) {
		p.Advance(epoch)
		for _, k := range keys {
			r := keyInt(k, payload)
			payload++
			addRow(h, r.Clone())
			addRow(twin, r.Clone())
		}
	}

	addRound(1, 1, 2, 3, 1, 1)
	if err := p.Enforce(); err != nil {
		t.Fatal(err)
	}
	addRound(2, 1, 4, 2) // hot suffixes on top of spilled prefixes
	for _, k := range []int{1, 2, 3, 4, 99} {
		sameRows(t, probeKey(h, k), probeKey(twin, k), fmt.Sprintf("key %d after partial spill", k))
	}
	if err := p.Enforce(); err != nil {
		t.Fatal(err)
	}
	addRound(3, 1)
	// Now key 1 has two spilled runs plus a hot row.
	for _, k := range []int{1, 2, 3, 4} {
		sameRows(t, probeKey(h, k), probeKey(twin, k), fmt.Sprintf("key %d after second spill", k))
	}

	if h.Len() != twin.Len() || h.SizeBytes() != twin.SizeBytes() {
		t.Fatalf("logical accounting drifted: (%d, %d) vs (%d, %d)",
			h.Len(), h.SizeBytes(), twin.Len(), twin.SizeBytes())
	}
	if h.SpilledRows() == 0 {
		t.Fatal("expected spilled rows under a zero budget")
	}
	if h.MemBytes() >= twin.MemBytes() {
		t.Fatalf("spilled store resident %d not below twin %d", h.MemBytes(), twin.MemBytes())
	}
	if m.SpillBytesWritten() == 0 || m.SpillBytesRead() == 0 {
		t.Fatalf("metrics: written %d read %d, want both > 0",
			m.SpillBytesWritten(), m.SpillBytesRead())
	}

	// Each must visit the same multiset, spilled prefix before hot suffix
	// per key — collect (key, payload) pairs and compare sorted by key with
	// per-key order preserved.
	collect := func(s *HashStore) []string {
		byKey := map[int64][]string{}
		var keys []int64
		s.Each(func(r Row) {
			k := r.Vals[0].Int()
			if len(byKey[k]) == 0 {
				keys = append(keys, k)
			}
			byKey[k] = append(byKey[k], r.Vals[1].String())
		})
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		var out []string
		for _, k := range keys {
			out = append(out, fmt.Sprintf("%d:%v", k, byKey[k]))
		}
		return out
	}
	got, want := collect(h), collect(twin)
	if len(got) != len(want) {
		t.Fatalf("Each visited %d keys, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Each key %d: %s, want %s", i, got[i], want[i])
		}
	}
}

// TestSnapshotSurvivesEviction is the satellite-4 regression: a snapshot
// taken while all rows were hot must restore correctly even after eviction
// moved those rows — plus newer ones — to disk in between. The key with
// rows on both sides of the snapshot boundary lands in a single spill run,
// forcing Restore to split a run at a row boundary (the straddling-ref
// case).
func TestSnapshotSurvivesEviction(t *testing.T) {
	h, p, _ := newSpillStore(t, 0)
	twin := NewHashStore([]int{0})
	add := func(k, payload int) {
		addRow(h, keyInt(k, payload))
		addRow(twin, keyInt(k, payload))
	}

	p.Advance(1)
	for i := 0; i < 5; i++ {
		add(1, i) // pre-snapshot rows of key 1
	}
	add(2, 100)
	snap, snapTwin := h.Snapshot(), twin.Snapshot()

	p.Advance(2)
	add(1, 5) // post-snapshot rows of key 1: same run as the 5 above
	add(1, 6)
	add(3, 200) // a key that postdates the snapshot entirely
	if err := p.Enforce(); err != nil {
		t.Fatal(err)
	}
	if h.SpilledRows() != h.Len() {
		t.Fatalf("setup: %d of %d rows spilled, want all", h.SpilledRows(), h.Len())
	}

	h.Restore(snap)
	twin.Restore(snapTwin)

	if h.Len() != twin.Len() || h.SizeBytes() != twin.SizeBytes() {
		t.Fatalf("restored accounting (%d, %d) != twin (%d, %d)",
			h.Len(), h.SizeBytes(), twin.Len(), twin.SizeBytes())
	}
	for _, k := range []int{1, 2, 3} {
		sameRows(t, probeKey(h, k), probeKey(twin, k), fmt.Sprintf("key %d after restore", k))
	}

	// The store must remain fully usable: grow again, spill again, probe.
	p.Advance(3)
	add(1, 7)
	add(3, 300)
	if err := p.Enforce(); err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1, 2, 3} {
		sameRows(t, probeKey(h, k), probeKey(twin, k), fmt.Sprintf("key %d after regrow", k))
	}
}

// TestRestoreOfSpilledPastIsRepeatable: snapshot AFTER a spill (the snapshot
// itself covers on-disk rows), then grow, spill more, restore — twice, since
// a Restore that corrupted the run index would only show on the second pass.
func TestRestoreOfSpilledPast(t *testing.T) {
	h, p, _ := newSpillStore(t, 0)
	twin := NewHashStore([]int{0})
	add := func(k, payload int) {
		addRow(h, keyInt(k, payload))
		addRow(twin, keyInt(k, payload))
	}
	p.Advance(1)
	add(1, 0)
	add(1, 1)
	add(2, 2)
	if err := p.Enforce(); err != nil {
		t.Fatal(err)
	}
	p.Advance(2)
	add(1, 3) // hot on top of spilled
	snap, snapTwin := h.Snapshot(), twin.Snapshot()

	for round := 0; round < 2; round++ {
		p.Advance(3 + round)
		add(1, 10+round)
		add(2, 20+round)
		if err := p.Enforce(); err != nil {
			t.Fatal(err)
		}
		h.Restore(snap)
		twin.Restore(snapTwin)
		for _, k := range []int{1, 2} {
			sameRows(t, probeKey(h, k), probeKey(twin, k),
				fmt.Sprintf("round %d key %d", round, k))
		}
	}
}

// TestSpillFaultLeavesMemoryAuthoritative: a failed write or sync during
// eviction must leave the hot map byte-for-byte intact (no index entry, no
// lost rows), and a retry after the fault heals must succeed.
func TestSpillFaultLeavesMemoryAuthoritative(t *testing.T) {
	for _, tc := range []struct {
		name   string
		inject func(fs *storage.FaultFS)
	}{
		{"write-error", func(fs *storage.FaultFS) { fs.FailWriteAt(1, false) }},
		{"short-write", func(fs *storage.FaultFS) { fs.FailWriteAt(1, true) }},
		{"sync-error", func(fs *storage.FaultFS) { fs.FailSyncAt(1) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var m cluster.Metrics
			fs := storage.NewFaultFS(storage.NewMemFS())
			p := NewSpillPolicy(0, fs, &m)
			h := NewHashStore([]int{0})
			p.Register(h)
			defer p.Close()

			p.Advance(1)
			for i := 0; i < 6; i++ {
				addRow(h, keyInt(i%2, i))
			}
			memBefore := h.MemBytes()

			tc.inject(fs)
			err := p.Enforce()
			if !errors.Is(err, storage.ErrInjected) {
				t.Fatalf("Enforce error = %v, want injected fault", err)
			}
			if h.MemBytes() != memBefore || h.SpilledRows() != 0 {
				t.Fatalf("failed spill mutated state: mem %d->%d, spilled %d",
					memBefore, h.MemBytes(), h.SpilledRows())
			}
			if m.SpillBytesWritten() != 0 {
				t.Fatalf("failed spill recorded %d written bytes", m.SpillBytesWritten())
			}

			// Fault healed (N-th op schedules fire once): retry succeeds and
			// reads agree with a twin.
			if err := p.Enforce(); err != nil {
				t.Fatalf("retry after heal: %v", err)
			}
			if h.SpilledRows() != 6 {
				t.Fatalf("retry spilled %d rows, want 6", h.SpilledRows())
			}
			twin := NewHashStore([]int{0})
			for i := 0; i < 6; i++ {
				addRow(twin, keyInt(i%2, i))
			}
			for _, k := range []int{0, 1} {
				sameRows(t, probeKey(h, k), probeKey(twin, k), fmt.Sprintf("key %d", k))
			}
		})
	}
}

// TestEvictionOrderColdestFirst: with a budget that only forces one shard
// out, the shard untouched for longer spills first even when the recently
// touched one is larger.
func TestEvictionOrderColdestFirst(t *testing.T) {
	// Find two keys living in different shards.
	coldK, hotK := -1, -1
	for i := 0; i < 64 && hotK < 0; i++ {
		s := shardOf(rel.EncodeKey([]rel.Value{rel.Int(int64(i))}, []int{0}))
		if coldK < 0 {
			coldK = i
			continue
		}
		if s != shardOf(rel.EncodeKey([]rel.Value{rel.Int(int64(coldK))}, []int{0})) {
			hotK = i
		}
	}
	if hotK < 0 {
		t.Fatal("could not find keys in distinct shards")
	}

	var m cluster.Metrics
	p := NewSpillPolicy(1, storage.NewMemFS(), &m) // tiny but nonzero
	h := NewHashStore([]int{0})
	p.Register(h)
	defer p.Close()

	p.Advance(1)
	addRow(h, keyInt(coldK, 0))
	p.Advance(2)
	for i := 0; i < 5; i++ { // hot shard is 5x larger but recent
		addRow(h, keyInt(hotK, i))
	}
	// Budget 1 byte: both shards eventually go, but order is observable via
	// a one-shard budget. Use a budget that fits the hot shard exactly.
	hotBytes := 0
	for i := 0; i < 5; i++ {
		hotBytes += keyInt(hotK, i).SizeBytes()
	}
	p.budget = int64(hotBytes + 48)
	if err := p.Enforce(); err != nil {
		t.Fatal(err)
	}
	if got := h.SpilledRows(); got != 1 {
		t.Fatalf("spilled %d rows, want exactly the cold shard's 1", got)
	}
	// Probing the cold key reads disk; the hot key must not.
	readBefore := m.SpillBytesRead()
	probeKey(h, hotK)
	if m.SpillBytesRead() != readBefore {
		t.Fatal("hot key probe touched disk")
	}
	probeKey(h, coldK)
	if m.SpillBytesRead() == readBefore {
		t.Fatal("cold key probe did not read from disk")
	}
}

// TestAddBatchParallelMatchesSequentialUnderSpill: the worker-parallel build
// path must produce the same store as sequential Adds when spill state is
// present (spilled prefixes must never be disturbed by AddBatch).
func TestAddBatchParallelMatchesSequentialUnderSpill(t *testing.T) {
	h, p, _ := newSpillStore(t, 0)
	seq := NewHashStore([]int{0})

	p.Advance(1)
	var first []Row
	for i := 0; i < 40; i++ {
		first = append(first, keyInt(i%7, i))
	}
	h.AddBatch(first, true, cluster.NewPool(4))
	for _, r := range first {
		addRow(seq, r.Clone())
	}
	if err := p.Enforce(); err != nil {
		t.Fatal(err)
	}

	p.Advance(2)
	var second []Row
	for i := 40; i < 80; i++ {
		second = append(second, keyInt(i%7, i))
	}
	h.AddBatch(second, true, cluster.NewPool(4))
	for _, r := range second {
		addRow(seq, r.Clone())
	}

	for k := 0; k < 7; k++ {
		sameRows(t, probeKey(h, k), probeKey(seq, k), fmt.Sprintf("key %d", k))
	}
	if h.Len() != seq.Len() || h.SizeBytes() != seq.SizeBytes() {
		t.Fatalf("accounting drifted: (%d, %d) vs (%d, %d)",
			h.Len(), h.SizeBytes(), seq.Len(), seq.SizeBytes())
	}
}

// TestProbeSpilledShardWithoutKeyReadsNothing: the exact spilled-key index
// alone decides whether a probe touches disk. Once every shard has spilled,
// a key with no spilled rows — one added hot afterwards, or one never added
// — answers with exactly its hot rows and reads no spill bytes.
func TestProbeSpilledShardWithoutKeyReadsNothing(t *testing.T) {
	h, p, m := newSpillStore(t, 0)
	twin := NewHashStore([]int{0})
	p.Advance(1)
	for k := 0; k < 2000; k += 2 {
		addRow(h, keyInt(k, k))
	}
	if err := p.Enforce(); err != nil {
		t.Fatal(err)
	}
	for s := range h.shards {
		if h.shards[s].onDisk == 0 {
			t.Fatalf("shard %d holds no spilled rows; fixture too narrow", s)
		}
	}
	p.Advance(2)
	for k := 1; k < 2000; k += 2 {
		addRow(h, keyInt(k, k))
		addRow(twin, keyInt(k, k))
	}
	read := m.SpillBytesRead()
	for k := 1; k < 2000; k += 2 {
		sameRows(t, probeKey(h, k), probeKey(twin, k), fmt.Sprintf("hot key %d", k))
	}
	for k := 100001; k < 102000; k += 2 {
		if got := probeKey(h, k); len(got) != 0 {
			t.Fatalf("absent key %d returned %d rows", k, len(got))
		}
	}
	if got := m.SpillBytesRead(); got != read {
		t.Fatalf("probes of keys without spilled rows read %d spill bytes", got-read)
	}
}

// TestSpillCompressedRuns pins spill-chunk compression end to end: a key
// whose per-key run exceeds the compression threshold spills as a flate
// chunk (fewer file bytes written than the raw row encoding), reads back
// identical rows, and a snapshot cut falling inside the compressed run
// restores correctly — the trim keeps the chunk whole and reduces only the
// decoded row count.
func TestSpillCompressedRuns(t *testing.T) {
	h, p, m := newSpillStore(t, 0)
	twin := NewHashStore([]int{0})
	mkRow := func(payload int) Row {
		return Row{Vals: []rel.Value{
			rel.Int(7),
			rel.String(fmt.Sprintf("session-payload-%03d-east-region", payload)),
		}, Mult: 1, W: []float64{1, 0.5}}
	}
	rawBytes := 0
	p.Advance(1)
	for i := 0; i < 48; i++ { // pre-snapshot rows, well past spillCompressMin
		r := mkRow(i)
		enc, err := storage.AppendSpillRow(nil, r.Vals, r.Mult, r.W)
		if err != nil {
			t.Fatal(err)
		}
		rawBytes += len(enc)
		addRow(h, r.Clone())
		addRow(twin, r.Clone())
	}
	snap, snapTwin := h.Snapshot(), twin.Snapshot()
	p.Advance(2)
	for i := 48; i < 64; i++ { // post-snapshot rows, same run after eviction
		addRow(h, mkRow(i))
		addRow(twin, mkRow(i))
	}
	if err := p.Enforce(); err != nil {
		t.Fatal(err)
	}
	if h.SpilledRows() != h.Len() {
		t.Fatalf("setup: %d of %d rows spilled, want all", h.SpilledRows(), h.Len())
	}
	if w := m.SpillBytesWritten(); w == 0 || int(w) >= rawBytes {
		t.Fatalf("spill wrote %d bytes; want > 0 and < raw encoding %d (compression)", w, rawBytes)
	}
	sameRows(t, probeKey(h, 7), probeKey(twin, 7), "key 7 from compressed run")

	// Restore cuts inside the compressed run: 48 of 64 rows survive.
	h.Restore(snap)
	twin.Restore(snapTwin)
	if h.Len() != twin.Len() || h.SizeBytes() != twin.SizeBytes() {
		t.Fatalf("restored accounting (%d, %d) != twin (%d, %d)",
			h.Len(), h.SizeBytes(), twin.Len(), twin.SizeBytes())
	}
	sameRows(t, probeKey(h, 7), probeKey(twin, 7), "key 7 after compressed-run trim")

	// The store stays usable: grow, spill again, probe through both runs.
	p.Advance(3)
	addRow(h, mkRow(100))
	addRow(twin, mkRow(100))
	if err := p.Enforce(); err != nil {
		t.Fatal(err)
	}
	sameRows(t, probeKey(h, 7), probeKey(twin, 7), "key 7 after regrow")
}
