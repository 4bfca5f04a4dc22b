package agg

import (
	"math"
	"testing"
)

func TestDistinctAccumulator(t *testing.T) {
	r := NewRegistry()
	f, ok := r.Lookup("COUNTD")
	if !ok {
		t.Fatal("COUNTD not registered")
	}
	if !f.AcceptsAny || f.Smooth {
		t.Errorf("COUNTD flags wrong: %+v", f)
	}
	a := f.New()
	a.Add(1, 1)
	a.Add(1, 2) // duplicate
	a.Add(2, 1)
	a.Add(3, 0) // zero weight: semantically absent
	if got := a.Result(1); got != 2 {
		t.Errorf("distinct = %v, want 2", got)
	}
	if got := a.Result(100); got != 2 {
		t.Error("COUNT(DISTINCT) must not scale with m_i")
	}
	// Merge unions the sets.
	b := f.New()
	b.Add(2, 1)
	b.Add(9, 1)
	a.Merge(b)
	if got := a.Result(1); got != 3 {
		t.Errorf("merged distinct = %v, want 3", got)
	}
	// Clone isolation.
	c := a.Clone()
	a.Add(50, 1)
	if c.Result(1) != 3 {
		t.Error("clone not isolated")
	}
	// Reset.
	a.Reset()
	if a.Result(1) != 0 {
		t.Error("reset failed")
	}
	if a.SizeBytes() <= 0 {
		t.Error("size must be positive")
	}
}

func TestResetAllBuiltins(t *testing.T) {
	r := NewRegistry()
	for _, name := range []string{"SUM", "COUNT", "AVG", "VAR", "STDDEV", "MIN", "MAX", "COUNTD"} {
		f, ok := r.Lookup(name)
		if !ok {
			t.Fatalf("%s missing", name)
		}
		a := f.New()
		a.Add(7, 2)
		a.Reset()
		got := a.Result(1)
		switch name {
		case "SUM", "COUNT", "COUNTD":
			if got != 0 {
				t.Errorf("%s after reset = %v, want 0", name, got)
			}
		default:
			if !math.IsNaN(got) && got != 0 {
				t.Errorf("%s after reset = %v, want empty (NaN or 0)", name, got)
			}
		}
		// After reset the accumulator must be reusable.
		a.Add(3, 1)
		if name == "SUM" && a.Result(1) != 3 {
			t.Error("accumulator unusable after reset")
		}
	}
}

func TestVectorResetReusesAccumulators(t *testing.T) {
	r := NewRegistry()
	f, _ := r.Lookup("SUM")
	v := NewVector(f, 3)
	v.Add(5, 1, []float64{1, 2, 0})
	v.Reset()
	if v.Result(1) != 0 {
		t.Error("vector main not reset")
	}
	for _, rep := range v.RepResults(1, nil) {
		if rep != 0 {
			t.Error("vector reps not reset")
		}
	}
	v.Add(4, 1, nil)
	if v.Result(1) != 4 {
		t.Error("vector unusable after reset")
	}
}

func TestVectorAddRepWithPoisson(t *testing.T) {
	r := NewRegistry()
	f, _ := r.Lookup("SUM")
	v := NewVector(f, 2)
	// Uncertain input values per trial AND poisson weights combine.
	v.AddRep(10, []float64{8, 12}, 1, []float64{2, 0})
	reps := v.RepResults(1, nil)
	if reps[0] != 16 { // 8 * weight 2
		t.Errorf("rep0 = %v, want 16", reps[0])
	}
	if reps[1] != 0 { // weight 0
		t.Errorf("rep1 = %v, want 0", reps[1])
	}
	// Short rep slice falls back to the running value.
	v2 := NewVector(f, 3)
	v2.AddRep(10, []float64{8}, 1, nil)
	reps2 := v2.RepResults(1, nil)
	if reps2[0] != 8 || reps2[1] != 10 || reps2[2] != 10 {
		t.Errorf("short reps fallback wrong: %v", reps2)
	}
}

func TestRegistryLookupMiss(t *testing.T) {
	r := NewRegistry()
	if _, ok := r.Lookup("NOPE"); ok {
		t.Error("unknown aggregate found")
	}
}

func TestMinMaxMergeEmpty(t *testing.T) {
	r := NewRegistry()
	for _, name := range []string{"MIN", "MAX"} {
		f, _ := r.Lookup(name)
		a := f.New()
		a.Add(5, 1)
		empty := f.New()
		a.Merge(empty) // merging an empty accumulator is a no-op
		if a.Result(1) != 5 {
			t.Errorf("%s merge with empty changed result", name)
		}
		empty2 := f.New()
		empty2.Merge(a)
		if empty2.Result(1) != 5 {
			t.Errorf("%s merge into empty lost value", name)
		}
	}
}

func TestStddevMergeAndReset(t *testing.T) {
	r := NewRegistry()
	f, _ := r.Lookup("STDDEV")
	a, b := f.New(), f.New()
	for _, x := range []float64{2, 4} {
		a.Add(x, 1)
	}
	for _, x := range []float64{4, 4, 5, 5, 7, 9} {
		b.Add(x, 1)
	}
	a.Merge(b)
	if got := a.Result(1); math.Abs(got-2) > 1e-12 {
		t.Errorf("merged stddev = %v, want 2", got)
	}
	a.Reset()
	a.Add(3, 1)
	a.Add(3, 1)
	if got := a.Result(1); got != 0 {
		t.Errorf("stddev of constant after reset = %v, want 0", got)
	}
}
