package agg

import (
	"math"
	"math/rand"
	"testing"
)

func lookup(t *testing.T, name string) *Func {
	t.Helper()
	r := NewRegistry()
	f, ok := r.Lookup(name)
	if !ok {
		t.Fatalf("aggregate %s not registered", name)
	}
	return f
}

func TestSum(t *testing.T) {
	a := lookup(t, "SUM").New()
	a.Add(10, 1)
	a.Add(5, 2)
	if got := a.Result(1); got != 20 {
		t.Errorf("sum = %v, want 20", got)
	}
	if got := a.Result(3); got != 60 {
		t.Errorf("scaled sum = %v, want 60", got)
	}
}

func TestCount(t *testing.T) {
	a := lookup(t, "count").New()
	a.Add(999, 1)
	a.Add(0, 2.5)
	if got := a.Result(1); got != 3.5 {
		t.Errorf("count = %v, want 3.5 (value ignored, weights summed)", got)
	}
	if got := a.Result(2); got != 7 {
		t.Errorf("scaled count = %v", got)
	}
}

func TestAvgScaleFree(t *testing.T) {
	a := lookup(t, "AVG").New()
	a.Add(10, 1)
	a.Add(20, 1)
	a.Add(30, 2)
	want := (10.0 + 20 + 60) / 4
	if got := a.Result(1); got != want {
		t.Errorf("avg = %v, want %v", got, want)
	}
	if got := a.Result(100); got != want {
		t.Error("AVG must ignore the extensive scale")
	}
	empty := lookup(t, "AVG").New()
	if !math.IsNaN(empty.Result(1)) {
		t.Error("empty avg should be NaN")
	}
}

func TestVarStddev(t *testing.T) {
	v := lookup(t, "VAR").New()
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		v.Add(x, 1)
	}
	if got := v.Result(1); math.Abs(got-4) > 1e-12 {
		t.Errorf("var = %v, want 4", got)
	}
	s := lookup(t, "STDDEV").New()
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(x, 1)
	}
	if got := s.Result(1); math.Abs(got-2) > 1e-12 {
		t.Errorf("stddev = %v, want 2", got)
	}
	// Numerical floor: identical values have zero variance.
	z := lookup(t, "VAR").New()
	z.Add(1e9, 1)
	z.Add(1e9, 1)
	if got := z.Result(1); got < 0 {
		t.Errorf("variance must be non-negative, got %v", got)
	}
}

func TestMinMax(t *testing.T) {
	mn := lookup(t, "MIN").New()
	mx := lookup(t, "MAX").New()
	for _, x := range []float64{5, 3, 9, 3} {
		mn.Add(x, 1)
		mx.Add(x, 1)
	}
	if mn.Result(1) != 3 || mx.Result(1) != 9 {
		t.Errorf("min/max = %v/%v", mn.Result(1), mx.Result(1))
	}
	// Zero-weight adds are ignored (tuple not really present).
	mn.Add(-100, 0)
	if mn.Result(1) != 3 {
		t.Error("zero-weight add must not affect MIN")
	}
	empty := lookup(t, "MIN").New()
	if !math.IsNaN(empty.Result(1)) {
		t.Error("empty MIN should be NaN")
	}
}

func TestMergeEquivalence(t *testing.T) {
	// Property: splitting a stream across two accumulators and merging
	// equals accumulating everything in one — for every builtin.
	names := []string{"SUM", "COUNT", "AVG", "VAR", "STDDEV", "MIN", "MAX"}
	rng := rand.New(rand.NewSource(5))
	for _, name := range names {
		f := lookup(t, name)
		for trial := 0; trial < 50; trial++ {
			whole := f.New()
			a, b := f.New(), f.New()
			n := 1 + rng.Intn(20)
			for i := 0; i < n; i++ {
				v := rng.Float64()*100 - 50
				w := float64(1 + rng.Intn(3))
				whole.Add(v, w)
				if rng.Intn(2) == 0 {
					a.Add(v, w)
				} else {
					b.Add(v, w)
				}
			}
			a.Merge(b)
			got, want := a.Result(2), whole.Result(2)
			if math.Abs(got-want) > 1e-9*(1+math.Abs(want)) {
				t.Errorf("%s merge mismatch: %v vs %v", name, got, want)
			}
		}
	}
}

func TestCloneIsolation(t *testing.T) {
	for _, name := range []string{"SUM", "COUNT", "AVG", "VAR", "MIN", "MAX"} {
		a := lookup(t, name).New()
		a.Add(5, 1)
		c := a.Clone()
		a.Add(100, 1)
		if c.Result(1) == a.Result(1) && name != "MIN" {
			t.Errorf("%s clone not isolated", name)
		}
	}
}

func TestUDAFRegistration(t *testing.T) {
	r := NewRegistry()
	// Geometric mean: a smooth, sketchable UDAF (sum of logs).
	type geo struct{ logSum, n float64 }
	err := r.Register(Func{
		Name: "GEOMEAN", TakesArg: true, Smooth: true,
		New: func() Accumulator { return &geoAcc{} },
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = geo{}
	f, ok := r.Lookup("geomean")
	if !ok {
		t.Fatal("UDAF not found")
	}
	a := f.New()
	a.Add(2, 1)
	a.Add(8, 1)
	if got := a.Result(1); math.Abs(got-4) > 1e-12 {
		t.Errorf("geomean(2,8) = %v, want 4", got)
	}
	if err := r.Register(Func{}); err == nil {
		t.Error("invalid UDAF should be rejected")
	}
}

// geoAcc is the test UDAF accumulator.
type geoAcc struct{ logSum, n float64 }

func (a *geoAcc) Add(v, w float64) {
	if v > 0 {
		a.logSum += math.Log(v) * w
		a.n += w
	}
}
func (a *geoAcc) Result(float64) float64 {
	if a.n == 0 {
		return math.NaN()
	}
	return math.Exp(a.logSum / a.n)
}
func (a *geoAcc) Merge(o Accumulator) {
	b := o.(*geoAcc)
	a.logSum += b.logSum
	a.n += b.n
}
func (a *geoAcc) Clone() Accumulator { c := *a; return &c }
func (a *geoAcc) Reset()             { a.logSum, a.n = 0, 0 }
func (a *geoAcc) SizeBytes() int     { return 16 }

func TestVectorReplicates(t *testing.T) {
	f := lookup(t, "SUM")
	v := NewVector(f, 3)
	v.Add(10, 1, []float64{0, 1, 2})
	v.Add(20, 1, []float64{1, 1, 0})
	if got := v.Result(1); got != 30 {
		t.Errorf("main = %v, want 30", got)
	}
	reps := v.RepResults(1, nil)
	want := []float64{20, 30, 20}
	for i := range want {
		if reps[i] != want[i] {
			t.Errorf("rep[%d] = %v, want %v", i, reps[i], want[i])
		}
	}
	// nil poisson = weight 1 for every replicate.
	v2 := NewVector(f, 2)
	v2.Add(5, 2, nil)
	reps2 := v2.RepResults(1, nil)
	if reps2[0] != 10 || reps2[1] != 10 {
		t.Errorf("nil poisson reps = %v", reps2)
	}
}

func TestVectorAddRep(t *testing.T) {
	f := lookup(t, "SUM")
	v := NewVector(f, 2)
	// The aggregated column itself is uncertain: per-trial input values.
	v.AddRep(10, []float64{9, 11}, 1, nil)
	if v.Result(1) != 10 {
		t.Error("main uses running value")
	}
	reps := v.RepResults(1, nil)
	if reps[0] != 9 || reps[1] != 11 {
		t.Errorf("AddRep reps = %v", reps)
	}
}

func TestVectorMergeClone(t *testing.T) {
	f := lookup(t, "SUM")
	v := NewVector(f, 2)
	v.Add(10, 1, []float64{1, 2})
	snap := v.SnapshotInto(nil).Materialize()
	v.Add(5, 1, nil)
	if snap.Result(1) != 10 {
		t.Error("clone must be isolated")
	}
	o := NewVector(f, 2)
	o.Add(7, 1, nil)
	snap.Merge(o)
	if snap.Result(1) != 17 {
		t.Error("vector merge failed")
	}
	if snap.SizeBytes() <= 0 {
		t.Error("vector size must be positive")
	}
}

func TestScaledRepResultsDst(t *testing.T) {
	f := lookup(t, "COUNT")
	v := NewVector(f, 4)
	v.Add(0, 1, []float64{1, 0, 2, 1})
	dst := make([]float64, 4)
	out := v.RepResults(3, dst)
	if &out[0] != &dst[0] {
		t.Error("RepResults should reuse dst")
	}
	if out[2] != 6 {
		t.Errorf("scaled count rep = %v, want 6", out[2])
	}
}
