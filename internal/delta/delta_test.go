package delta

import (
	"math/rand"
	"testing"

	"iolap/internal/expr"
	"iolap/internal/rel"
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
	h.Add(row(rel.Int(1), rel.String("a")))
	h.Add(row(rel.Int(1), rel.String("b")))
	h.Add(row(rel.Int(2), rel.String("c")))
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
	h.Add(row(rel.Int(1)))
	sizeAtSnap := h.SizeBytes()
	snap := h.Snapshot()
	h.Add(row(rel.Int(2)))
	h.Add(row(rel.Int(1), rel.Int(99))) // second row under an existing key
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
	h.Add(row(rel.Int(3)))
	if h.Len() != 2 {
		t.Error("store must accept rows after restore")
	}
}

func TestHashStoreSnapshotSurvivesReplayDivergence(t *testing.T) {
	// Classic recovery pattern: snapshot, extend, restore, extend with
	// DIFFERENT rows; the earlier snapshot's view must stay intact.
	h := NewHashStore([]int{0})
	h.Add(row(rel.Int(1), rel.String("a")))
	snap := h.Snapshot()
	h.Add(row(rel.Int(1), rel.String("b")))
	h.Restore(snap)
	h.Add(row(rel.Int(1), rel.String("c")))
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
				l.Add(x)
				allL = append(allL, x)
			}
			for _, x := range d2 {
				r.Add(x)
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
