package bootstrap

import (
	"math"
	"slices"
	"sort"
	"testing"
)

// summarizeSorted is the sort-based reference for SummarizeInto: a full
// sort.Float64s of the replicates, then the two interpolations.
func summarizeSorted(value float64, reps []float64) Estimate {
	sorted := slices.Clone(reps)
	sort.Float64s(sorted)
	e := Estimate{Value: value, Stdev: Stdev(reps)}
	e.CILo = quantileSorted(sorted, 0.025)
	e.CIHi = quantileSorted(sorted, 0.975)
	e.RelStd = e.Stdev
	if value != 0 {
		e.RelStd = math.Abs(e.Stdev / value)
	}
	return e
}

// fuzzSpecials are the replicate values a fuzz byte below len(fuzzSpecials)
// selects; every other byte b selects int8(b)/4, so ties are common.
var fuzzSpecials = []float64{
	math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
	math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64,
}

// fuzzReps maps up to 256 fuzz bytes to replicates.
func fuzzReps(data []byte) []float64 {
	reps := make([]float64, min(len(data), 256))
	for i := range reps {
		if b := data[i]; int(b) < len(fuzzSpecials) {
			reps[i] = fuzzSpecials[b]
		} else {
			reps[i] = float64(int8(b)) / 4
		}
	}
	return reps
}

// sameBits compares two estimate fields by Float64bits, except that -0 and
// +0 are equal: sort.Float64s does not order them either, so which of the
// two lands in an order statistic is arbitrary on both sides.
func sameBits(a, b float64) bool {
	return (a == 0 && b == 0) || math.Float64bits(a) == math.Float64bits(b)
}

// FuzzSummarizeSelect checks that SummarizeInto, which selects the four order
// statistics its confidence bounds read, equals the sort-based reference on
// replicates of length 1–256 with NaN, ±Inf, ±0 and ties — whatever the
// scratch held before, and without reordering the replicates.
func FuzzSummarizeSelect(f *testing.F) {
	ramp := make([]byte, 100)
	for i := range ramp {
		ramp[i] = byte(i*37 + 11)
	}
	f.Add(1.5, ramp)
	f.Add(0.0, []byte{42})
	f.Add(-2.0, []byte{200, 9})
	f.Add(3.0, []byte{0, 0, 9, 1, 2, 3, 4, 5, 6, 7, 100, 100, 100})
	f.Add(1.0, make([]byte, 256))
	f.Add(7.0, []byte{3, 4, 3, 4, 4, 3, 120, 3, 4, 4, 3, 3, 4, 3, 4, 4, 3, 3, 4, 3, 4, 4, 3, 3, 4, 3, 4, 4, 3, 3, 4, 3, 4, 4, 3, 3, 4, 3, 4, 4, 3})
	f.Fuzz(func(t *testing.T, value float64, data []byte) {
		reps := fuzzReps(data)
		if len(reps) == 0 {
			return
		}
		orig := slices.Clone(reps)
		scratch := make([]float64, 256)
		for i := range scratch {
			scratch[i] = float64(i) - 128
		}
		got, _ := SummarizeInto(value, reps, scratch[:0])
		want := summarizeSorted(value, orig)
		for _, c := range []struct {
			name      string
			got, want float64
		}{
			{"Value", got.Value, want.Value},
			{"Stdev", got.Stdev, want.Stdev},
			{"CILo", got.CILo, want.CILo},
			{"CIHi", got.CIHi, want.CIHi},
			{"RelStd", got.RelStd, want.RelStd},
		} {
			if !sameBits(c.got, c.want) {
				t.Fatalf("%s over %v: got %v (%#x), sorted reference %v (%#x)", c.name, orig,
					c.got, math.Float64bits(c.got), c.want, math.Float64bits(c.want))
			}
		}
		for i := range reps {
			if math.Float64bits(reps[i]) != math.Float64bits(orig[i]) {
				t.Fatalf("replicates reordered at %d", i)
			}
		}
	})
}
