package agg

import (
	"math"
	"testing"
)

// fillVector folds a deterministic value stream with per-trial Poisson
// weights so main and every replicate hold distinct non-trivial state.
func fillVector(v *Vector, n int) {
	poisson := make([]float64, v.trials)
	for i := 0; i < n; i++ {
		for b := range poisson {
			poisson[b] = float64((i+b)%3) * 0.5
		}
		v.Add(float64(i)*1.25+0.5, 1, poisson)
	}
}

func vectorsEqual(t *testing.T, a, b *Vector, label string) {
	t.Helper()
	if math.Float64bits(a.Result(1.5)) != math.Float64bits(b.Result(1.5)) {
		t.Errorf("%s: main result differs: %v vs %v", label, a.Result(1.5), b.Result(1.5))
	}
	ra := a.RepResults(1.5, nil)
	rb := b.RepResults(1.5, nil)
	for i := range ra {
		if math.Float64bits(ra[i]) != math.Float64bits(rb[i]) {
			t.Errorf("%s: replicate %d differs: %v vs %v", label, i, ra[i], rb[i])
		}
	}
}

// TestVectorSnapshotRoundTrip: for every builtin, on both the bank and the
// interface (oracle) path — snapshot, mutate, RestoreInto brings the vector
// back bit-identically; Materialize builds an equivalent fresh vector; the
// snap survives a second restore (replay may reuse it).
func TestVectorSnapshotRoundTrip(t *testing.T) {
	r := NewRegistry()
	for _, name := range []string{"SUM", "COUNT", "AVG", "VAR", "STDDEV", "MIN", "MAX", "COUNTD"} {
		fn, ok := r.Lookup(name)
		if !ok {
			t.Fatalf("missing builtin %s", name)
		}
		for _, mk := range []struct {
			label string
			make  func() *Vector
		}{
			{"bank", func() *Vector { return NewVector(fn, 16) }},
			{"oracle", func() *Vector { return NewVectorOracle(fn, 16) }},
		} {
			v := mk.make()
			fillVector(v, 40)
			want := v.SnapshotInto(nil).Materialize()
			snap := v.SnapshotInto(nil)

			fillVector(v, 25) // diverge past the snapshot point
			if ok := snap.RestoreInto(v); !ok {
				t.Fatalf("%s/%s: RestoreInto refused a matching vector", name, mk.label)
			}
			vectorsEqual(t, v, want, name+"/"+mk.label+"/restore")

			m := snap.Materialize()
			vectorsEqual(t, m, want, name+"/"+mk.label+"/materialize")

			// The snap must survive restore: replay it once more.
			fillVector(v, 7)
			if ok := snap.RestoreInto(v); !ok {
				t.Fatalf("%s/%s: second RestoreInto refused", name, mk.label)
			}
			vectorsEqual(t, v, want, name+"/"+mk.label+"/restore2")
		}
	}
}

// TestVectorSnapshotShapeMismatch: RestoreInto refuses vectors with a
// different function, trial count, or representation instead of silently
// corrupting state.
func TestVectorSnapshotShapeMismatch(t *testing.T) {
	r := NewRegistry()
	sum, _ := r.Lookup("SUM")
	cnt, _ := r.Lookup("COUNT")

	snap := NewVector(sum, 8).SnapshotInto(nil)
	if snap.RestoreInto(NewVector(cnt, 8)) {
		t.Error("restored a SUM snap into a COUNT vector")
	}
	if snap.RestoreInto(NewVector(sum, 9)) {
		t.Error("restored across trial counts")
	}
	if snap.RestoreInto(NewVectorOracle(sum, 8)) {
		t.Error("restored a bank snap into an interface vector")
	}
}

// TestVectorSnapshotAllocs pins the bank path's snapshot cost: reusing a
// snap's slab via SnapshotInto and restoring in place via RestoreInto must
// not allocate at all.
func TestVectorSnapshotAllocs(t *testing.T) {
	r := NewRegistry()
	fn, _ := r.Lookup("VAR") // widest builtin bank (3 fields)
	v := NewVector(fn, 64)
	fillVector(v, 50)
	snap := v.SnapshotInto(nil)

	if a := testing.AllocsPerRun(100, func() { v.SnapshotInto(snap) }); a != 0 {
		t.Errorf("SnapshotInto into reused snap: %v allocs/run, want 0", a)
	}
	if a := testing.AllocsPerRun(100, func() { snap.RestoreInto(v) }); a != 0 {
		t.Errorf("RestoreInto: %v allocs/run, want 0", a)
	}
}
