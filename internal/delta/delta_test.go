package delta

import (
	"math/rand"
	"testing"

	"iolap/internal/cluster"
	"iolap/internal/expr"
	"iolap/internal/rel"
	"iolap/internal/storage"
)

func row(vals ...rel.Value) Row { return Row{Vals: vals, Mult: 1} }

func TestRowCloneIsolation(t *testing.T) {
	r := row(rel.Int(1), rel.String("x"))
	c := r.Clone()
	c.Vals[0] = rel.Int(99)
	if r.Vals[0].Int() != 1 {
		t.Error("clone must not share value storage")
	}
}

func TestCombineWeights(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{2, 0, 1}
	got := CombineWeights(a, b)
	want := []float64{2, 0, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("combine[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if CombineWeights(nil, b)[0] != 2 {
		t.Error("nil left must pass through right")
	}
	if CombineWeights(a, nil)[2] != 3 {
		t.Error("nil right must pass through left")
	}
	if CombineWeights(nil, nil) != nil {
		t.Error("both nil stays nil")
	}
	// Unequal lengths break the precondition: a panic, not a silent 1.
	defer func() {
		if recover() == nil {
			t.Error("a shorter right vector must panic")
		}
	}()
	CombineWeights(a, b[:2])
}

// TestRowSetSnapshotRestore pins what §5.1 recovery relies on: a snapshot is a
// private slice of shared, immutable rows — nothing done to the live set
// afterwards (appends, the in-place compaction a SELECT performs, Clear)
// reaches it, a restore leaves it reusable, and neither direction costs more
// than the one header slice.
func TestRowSetSnapshotRestore(t *testing.T) {
	ints := func(s *RowSet) []int64 {
		out := make([]int64, s.Len())
		for i, r := range s.Rows {
			out[i] = r.Vals[0].Int()
		}
		return out
	}
	same := func(got []int64, want ...int64) bool {
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	var s RowSet
	for i := int64(1); i <= 4; i++ {
		s.Add(row(rel.Int(i)))
	}
	snap := s.Snapshot()
	if s.SizeBytes() != snap.SizeBytes() || s.SizeBytes() <= 24 {
		t.Errorf("size: live %d, snapshot %d", s.SizeBytes(), snap.SizeBytes())
	}
	if &snap.Rows[0].Vals[0] != &s.Rows[0].Vals[0] {
		t.Error("snapshot must share the rows' values, not copy them")
	}

	s.Add(row(rel.Int(5)))
	// In-place compaction, as opSelect.step does it: drop rows 1 and 3.
	kept := s.Rows[:0]
	for _, r := range s.Rows {
		if v := r.Vals[0].Int(); v != 1 && v != 3 {
			kept = append(kept, r)
		}
	}
	s.Rows = kept
	if !same(ints(&s), 2, 4, 5) {
		t.Fatalf("compacted live set = %v", ints(&s))
	}
	if !same(ints(snap), 1, 2, 3, 4) {
		t.Errorf("snapshot after Add + compaction = %v, want [1 2 3 4]", ints(snap))
	}

	// Restore, diverge again, restore again: the snapshot is reusable.
	for round := 0; round < 2; round++ {
		s.Restore(snap)
		if !same(ints(&s), 1, 2, 3, 4) {
			t.Fatalf("round %d: restored = %v, want [1 2 3 4]", round, ints(&s))
		}
		s.Rows = s.Rows[:1]
		s.Add(row(rel.Int(7)))
		if !same(ints(snap), 1, 2, 3, 4) {
			t.Fatalf("round %d: snapshot after post-restore writes = %v", round, ints(snap))
		}
	}

	// Cost: one allocation per snapshot (the header slice), none per restore
	// into sufficient capacity — at any size.
	for _, n := range []int{4, 4096} {
		var big RowSet
		for i := 0; i < n; i++ {
			big.Add(row(rel.Int(int64(i))))
		}
		var live RowSet
		live.Rows = make([]Row, 0, n)
		sn := big.Snapshot()
		if got := testing.AllocsPerRun(20, func() { live.Restore(sn) }); got != 0 {
			t.Errorf("n=%d: Restore into sufficient capacity = %v allocs, want 0", n, got)
		}
		if live.Len() != n {
			t.Fatalf("n=%d: restored %d rows", n, live.Len())
		}
		rows := 0
		got := testing.AllocsPerRun(20, func() { rows = big.Snapshot().Len() })
		if rows != n || got != 1 {
			t.Errorf("n=%d: Snapshot = %v allocs (%d rows), want 1", n, got, rows)
		}
	}
}

func TestHashStore(t *testing.T) {
	h := NewHashStore([]int{0})
	addRow(h, row(rel.Int(1), rel.String("a")))
	addRow(h, row(rel.Int(1), rel.String("b")))
	addRow(h, row(rel.Int(2), rel.String("c")))
	if h.Len() != 3 {
		t.Fatalf("len = %d", h.Len())
	}
	probe := []rel.Value{rel.String("x"), rel.Int(1)} // key at index 1
	got := h.Probe(probe, []int{1})
	if len(got) != 2 {
		t.Errorf("probe matched %d rows, want 2", len(got))
	}
	miss := h.Probe([]rel.Value{rel.Int(9)}, []int{0})
	if len(miss) != 0 {
		t.Error("probe miss should be empty")
	}
	count := 0
	h.Each(func(Row) { count++ })
	if count != 3 {
		t.Errorf("Each visited %d", count)
	}
}

func TestHashStoreSnapshotRestore(t *testing.T) {
	h := NewHashStore([]int{0})
	addRow(h, row(rel.Int(1)))
	sizeAtSnap := h.SizeBytes()
	snap := h.Snapshot()
	addRow(h, row(rel.Int(2)))
	addRow(h, row(rel.Int(1), rel.Int(99))) // second row under an existing key
	h.Restore(snap)
	if h.Len() != 1 || h.SizeBytes() != sizeAtSnap {
		t.Errorf("restore failed: len=%d", h.Len())
	}
	if len(h.Probe([]rel.Value{rel.Int(2)}, []int{0})) != 0 {
		t.Error("restored store should not contain post-snapshot keys")
	}
	if got := len(h.Probe([]rel.Value{rel.Int(1)}, []int{0})); got != 1 {
		t.Errorf("restored store must truncate per-key rows: %d", got)
	}
	// Replay after restore: adds land where the discarded rows were.
	addRow(h, row(rel.Int(3)))
	if h.Len() != 2 {
		t.Error("store must accept rows after restore")
	}
}

func TestHashStoreSnapshotSurvivesReplayDivergence(t *testing.T) {
	// Classic recovery pattern: snapshot, extend, restore, extend with
	// DIFFERENT rows; the earlier snapshot's view must stay intact.
	h := NewHashStore([]int{0})
	addRow(h, row(rel.Int(1), rel.String("a")))
	snap := h.Snapshot()
	addRow(h, row(rel.Int(1), rel.String("b")))
	h.Restore(snap)
	addRow(h, row(rel.Int(1), rel.String("c")))
	got := h.Probe([]rel.Value{rel.Int(1)}, []int{0})
	if len(got) != 2 || got[1].Vals[1].Str() != "c" {
		t.Errorf("replay after restore wrong: %v", got)
	}
}

// TestDeltaJoinEquivalence is the core subsumption property: processing a
// stream of row batches through DeltaJoin accumulates exactly the join of
// the full inputs.
func TestDeltaJoinEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 50; trial++ {
		l := NewHashStore([]int{0})
		r := NewHashStore([]int{0})
		var result []Row
		var allL, allR []Row
		batches := 1 + rng.Intn(5)
		for b := 0; b < batches; b++ {
			var d1, d2 []Row
			for i := 0; i < rng.Intn(6); i++ {
				d1 = append(d1, row(rel.Int(int64(rng.Intn(4))), rel.String("l")))
			}
			for i := 0; i < rng.Intn(6); i++ {
				d2 = append(d2, row(rel.Int(int64(rng.Intn(4))), rel.String("r")))
			}
			result = append(result, DeltaJoin(l, r, d1, d2, []int{0}, []int{0})...)
			for _, x := range d1 {
				addRow(l, x)
				allL = append(allL, x)
			}
			for _, x := range d2 {
				addRow(r, x)
				allR = append(allR, x)
			}
		}
		// Batch join of the full inputs.
		want := 0
		for _, a := range allL {
			for _, b := range allR {
				if a.Vals[0].Equal(b.Vals[0]) {
					want++
				}
			}
		}
		if len(result) != want {
			t.Fatalf("incremental join produced %d rows, batch join %d", len(result), want)
		}
	}
}

func TestDeltaSelectProjectUnion(t *testing.T) {
	pred := expr.NewCmp(expr.Gt, expr.NewCol(0, "", rel.KInt), expr.NewConst(rel.Int(2)))
	delta := []Row{row(rel.Int(1)), row(rel.Int(3)), row(rel.Int(5))}
	got := DeltaSelect(pred, delta, nil)
	if len(got) != 2 {
		t.Errorf("delta select kept %d, want 2", len(got))
	}
	proj := DeltaProject([]expr.Expr{
		expr.NewArith(expr.Mul, expr.NewCol(0, "", rel.KInt), expr.NewConst(rel.Int(10)))},
		delta, nil)
	if proj[1].Vals[0].Int() != 30 {
		t.Errorf("delta project = %v", proj[1].Vals[0])
	}
	u := DeltaUnion(delta[:1], delta[1:])
	if len(u) != 3 {
		t.Error("delta union wrong")
	}
}

func TestDeltaJoinCombinesWeights(t *testing.T) {
	l := NewHashStore([]int{0})
	r := NewHashStore([]int{0})
	d1 := []Row{{Vals: []rel.Value{rel.Int(1)}, Mult: 2, W: []float64{1, 2}}}
	d2 := []Row{{Vals: []rel.Value{rel.Int(1)}, Mult: 3, W: []float64{2, 2}}}
	out := DeltaJoin(l, r, d1, d2, []int{0}, []int{0})
	if len(out) != 1 {
		t.Fatalf("rows = %d", len(out))
	}
	if out[0].Mult != 6 {
		t.Errorf("mult = %v, want 6", out[0].Mult)
	}
	if out[0].W[0] != 2 || out[0].W[1] != 4 {
		t.Errorf("weights = %v", out[0].W)
	}
}

// addRow inserts one row through AddBatch, the store's one insert.
func addRow(h *HashStore, r Row) { h.AddBatch([]Row{r}, false, nil) }

// TestStoreWeightModes: a state store owns its rows' weights. CopyWeights
// copies every vector, so the caller's buffer may be overwritten; IndexWeights
// drops a drawn vector (Tuple set) and keeps an undrawn one as a copy; the
// accounting charges an index row 8 bytes in place of its vector. A spill
// round trip keeps Tuple, so probes and accounting do not see where a row
// lives.
func TestStoreWeightModes(t *testing.T) {
	slab := []float64{1, 2, 3, 4}
	rows := []Row{
		{Vals: []rel.Value{rel.Int(1)}, Mult: 1, W: slab[0:2:2], Tuple: 8},
		{Vals: []rel.Value{rel.Int(1)}, Mult: 1, W: slab[2:4:4]}, // a product: no tuple
		{Vals: []rel.Value{rel.Int(2)}, Mult: 1},
	}
	for _, tc := range []struct {
		mode   WeightMode
		byIdx  []bool
		budget int64
	}{
		{CopyWeights, []bool{false, false}, 0},
		{IndexWeights, []bool{true, false}, 0},
		{IndexWeights, []bool{true, false}, -1},
	} {
		copy(slab, []float64{1, 2, 3, 4})
		h := NewStateStore([]int{0}, tc.mode)
		if tc.budget != 0 {
			var m cluster.Metrics
			p := NewSpillPolicy(tc.budget, storage.NewMemFS(), &m)
			p.Register(h)
			defer p.Close()
			h.AddBatch(rows, false, nil)
			if err := p.Enforce(); err != nil || h.SpilledRows() != len(rows) {
				t.Fatalf("mode %d: spilled %d rows (%v)", tc.mode, h.SpilledRows(), err)
			}
		} else {
			h.AddBatch(rows, false, nil)
		}
		copy(slab, []float64{9, 9, 9, 9}) // the drawer reuses its slab
		got := h.Probe([]rel.Value{rel.Int(1)}, []int{0})
		if len(got) != 2 {
			t.Fatalf("mode %d: %d rows under key 1, want 2", tc.mode, len(got))
		}
		want := 48 + rows[2].SizeBytes()
		for i, r := range got {
			if r.ByIndex() != tc.byIdx[i] || r.Tuple != rows[i].Tuple {
				t.Errorf("mode %d row %d: by index %v tuple %d, want %v %d", tc.mode, i, r.ByIndex(), r.Tuple, tc.byIdx[i], rows[i].Tuple)
			}
			if !r.ByIndex() && (len(r.W) != 2 || r.W[0] != float64(1+2*i)) {
				t.Errorf("mode %d row %d: weights %v, want the copy taken at insert", tc.mode, i, r.W)
			}
			want += r.SizeBytes()
		}
		if got[0].ByIndex() && got[0].SizeBytes() != 24+8+rel.Int(1).SizeBytes() {
			t.Errorf("mode %d: an index row accounts %d bytes", tc.mode, got[0].SizeBytes())
		}
		if h.SizeBytes() != want {
			t.Errorf("mode %d: store accounts %d bytes, rows %d", tc.mode, h.SizeBytes(), want)
		}
	}
}

// TestJoinRowsTuple: a joined row names the tuple of its one weighted side,
// none when both sides carry weights, and a row held by index may meet only
// a weight-free row.
func TestJoinRowsTuple(t *testing.T) {
	w := []float64{1, 2}
	drawn := Row{Mult: 1, W: w, Tuple: 5}
	free := Row{Mult: 1}
	byIdx := Row{Mult: 1, Tuple: 7}
	for _, c := range []struct {
		l, r  Row
		tuple uint64
	}{
		{drawn, free, 5}, {free, drawn, 5}, {drawn, drawn, 0}, {free, free, 0}, {byIdx, free, 7}, {free, byIdx, 7},
	} {
		if got := JoinRows(c.l, c.r).Tuple; got != c.tuple {
			t.Errorf("%+v ⋈ %+v: tuple %d, want %d", c.l, c.r, got, c.tuple)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("a row held by index joined with a weighted row did not panic")
		}
	}()
	JoinRows(byIdx, drawn)
}
