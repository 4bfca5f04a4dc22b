package bootstrap

import "testing"

// TestWeightsIntoZeroAllocs pins the per-tuple weight generation at zero
// allocations: the draw hands WeightsInto a slab-backed destination, and the
// walk keeps its state in registers.
func TestWeightsIntoZeroAllocs(t *testing.T) {
	const trials = 100
	src := NewPoissonSource(42, trials)
	dst := make([]float64, trials)
	var idx uint64
	if got := testing.AllocsPerRun(200, func() {
		src.WeightsInto(idx, dst)
		idx++
	}); got != 0 {
		t.Errorf("WeightsInto allocates %v per call, want 0", got)
	}
}

// TestSummarizeIntoZeroAllocsSteadyState: after the scratch has grown to
// the replicate count once, repeated summaries reuse it allocation-free
// apart from nothing at all.
func TestSummarizeIntoZeroAllocs(t *testing.T) {
	reps := make([]float64, 100)
	for i := range reps {
		reps[i] = float64(i%17) * 1.5
	}
	_, scratch := SummarizeInto(10, reps, nil) // warm the scratch
	if got := testing.AllocsPerRun(200, func() {
		_, scratch = SummarizeInto(10, reps, scratch)
	}); got != 0 {
		t.Errorf("SummarizeInto with warm scratch allocates %v per call, want 0", got)
	}
	e, _ := SummarizeInto(10, reps, scratch)
	if want := Summarize(10, reps); e != want {
		t.Errorf("SummarizeInto = %+v, Summarize = %+v", e, want)
	}
}
