// Package bootstrap implements the poissonized bootstrap error estimation
// iOLAP piggybacks on query execution (Section 2 and Appendix C), and the
// variation-range machinery (Section 5.1) that turns replicate spreads into
// the non-deterministic / near-deterministic dichotomy.
//
// Each streamed tuple is assigned a vector of B i.i.d. Poisson(1) weights;
// every aggregate maintains B weighted replicate accumulators alongside the
// running value, so each replicate simulates one bootstrap trial (resampling
// |D_i| tuples with replacement from D_i).
package bootstrap

import (
	"math"
	"sort"
)

// splitmix64 advances a SplitMix64 state and returns the next output. It is
// a small, fast, well-distributed PRNG used to derive per-tuple weight
// vectors deterministically from (seed, tupleIndex, trial).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// PoissonSource derives deterministic Poisson(1) weight vectors. The same
// (seed, index) always yields the same vector, which keeps every engine mode
// and the failure-recovery replay bit-for-bit reproducible.
type PoissonSource struct {
	seed   uint64
	trials int
}

// NewPoissonSource returns a source producing vectors of the given number of
// bootstrap trials.
func NewPoissonSource(seed uint64, trials int) *PoissonSource {
	if trials <= 0 {
		panic("bootstrap: trials must be positive")
	}
	return &PoissonSource{seed: seed, trials: trials}
}

// Trials returns the replicate count B.
func (p *PoissonSource) Trials() int { return p.trials }

// WeightsInto fills dst (which must have length Trials) with the Poisson(1)
// weight vector of the tuple with the given global index and returns it.
//
// Each tuple gets an independent SplitMix64 stream seeded from (seed, index),
// and the vector is Knuth's method walked along it: a draw multiplies
// uniforms into a running product until the product falls to e^-1 or below,
// and its weight is the number of uniforms that did not (about two uniforms
// per draw in expectation). The walk takes one uniform per iteration and
// never branches on it (poissonStep), so the mixes pipeline and no draw pays
// a mispredicted loop exit; it consumes the stream exactly as a per-draw loop
// would, so the vector is the same.
func (p *PoissonSource) WeightsInto(index uint64, dst []float64) []float64 {
	if len(dst) != p.trials {
		panic("bootstrap: WeightsInto dst length != trials")
	}
	state := splitmix64(p.seed ^ index*0x9e3779b97f4a7c15)
	b, k, prod := 0, 0, 1.0
	for b < len(dst) {
		state += 0x9e3779b97f4a7c15
		z := state
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		b, k, prod = poissonStep(dst, b, k, prod, (float64(z>>11)+0.5)/(1<<53))
	}
	return dst
}

// expNeg1Bits is e^-1 as IEEE-754 bits. Positive doubles order as their bit
// patterns, so for the running product (always > 0) the draw's stopping
// test prod <= e^-1 is Float64bits(prod) <= expNeg1Bits.
const (
	expNeg1Bits = 0x3fd78b56362cef38 // math.Float64bits(0.36787944117144233)
	oneBits     = 0x3ff0000000000000 // math.Float64bits(1)
)

// poissonStep folds one uniform u into the draw in progress — k uniforms so
// far kept the running product prod above e^-1 — and returns the walk's next
// (b, k, prod). When the product falls to e^-1 or below, the draw ends: k is
// its weight, written to dst[b], and the walk moves to draw b+1 with k = 0,
// prod = 1. The stopping test becomes an all-ones-or-zero mask (done, the
// sign of the bit-pattern difference), which selects both the reset and how
// far b advances, so the only branch is the tail guard: a draw whose first 65
// uniforms all keep the product above e^-1 (numerically impossible) emits 65
// after the 65th. dst[b] is stored on every step; only the store of the step
// that ends a draw survives. Small enough to inline into WeightsInto's loop
// (go build -gcflags=-m).
func poissonStep(dst []float64, b, k int, prod, u float64) (int, int, float64) {
	bits := math.Float64bits(prod * u)
	done := int(int64(bits-expNeg1Bits-1) >> 63) // -1 iff bits <= expNeg1Bits, else 0
	dst[b] = float64(k)
	b -= done
	k = (k + 1) &^ done
	prod = math.Float64frombits(bits&^uint64(done) | oneBits&uint64(done))
	if k > 64 {
		dst[b] = 65
		b, k, prod = b+1, 0, 1
	}
	return b, k, prod
}

// Mean returns the arithmetic mean of xs (NaN for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Stdev returns the sample standard deviation of xs (0 for <2 points).
func Stdev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return math.Sqrt(s / float64(len(xs)-1))
}

// MinMax returns the extrema of xs; it panics on empty input.
func MinMax(xs []float64) (lo, hi float64) {
	if len(xs) == 0 {
		panic("bootstrap: MinMax of empty slice")
	}
	lo, hi = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi
}

// Quantile returns the q-quantile (0<=q<=1) of xs by linear interpolation on
// a sorted copy; it panics on empty input.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		panic("bootstrap: Quantile of empty slice")
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	return quantileSorted(sorted, q)
}

// quantileSorted interpolates a quantile over pre-sorted data. For 0 < q < 1
// it reads only positions i = int(q·(n−1)) and i+1, so data in which just
// those hold their sorted values will do (selectQuantiles).
func quantileSorted(sorted []float64, q float64) float64 {
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	frac := pos - float64(i)
	if i+1 >= len(sorted) {
		return sorted[i]
	}
	return sorted[i]*(1-frac) + sorted[i+1]*frac
}

// selectQuantiles reorders xs so that every position quantileSorted reads for
// the quantiles qs (ascending, each in (0, 1)) holds the value sort.Float64s
// would put there: a selection, linear in len(xs) in expectation where the
// sort is n·log n. The order is sort.Float64s's, NaNs first; like it, the
// selection does not order -0 against +0.
func selectQuantiles(xs []float64, qs ...float64) {
	done := 0 // xs[:done] orders no later than xs[done:]
	for i, x := range xs {
		if x != x {
			xs[i], xs[done] = xs[done], x
			done++
		}
	}
	for _, q := range qs {
		i := int(q * float64(len(xs)-1))
		for k := i; k <= i+1 && k < len(xs); k++ {
			if k >= done {
				selectKth(xs[done:], k-done)
				done = k + 1
			}
		}
	}
}

// selectKth reorders xs, which holds no NaN, so that xs[k] is its k-th
// smallest value, no value before it is greater and none after it is smaller
// (Hoare's FIND with a median-of-three pivot).
func selectKth(xs []float64, k int) {
	lo, hi := 0, len(xs)-1
	for lo < hi {
		a, b, c := xs[lo], xs[lo+(hi-lo)/2], xs[hi]
		if a > b {
			a, b = b, a
		}
		if b > c {
			b = c
		}
		pivot := max(a, b) // the median of the three
		i, j := lo, hi
		for i <= j {
			for xs[i] < pivot {
				i++
			}
			for pivot < xs[j] {
				j--
			}
			if i <= j {
				xs[i], xs[j] = xs[j], xs[i]
				i++
				j--
			}
		}
		if j < k {
			lo = i
		}
		if k < i {
			hi = j
		}
	}
}

// Estimate summarises one uncertain value's bootstrap distribution.
type Estimate struct {
	Value  float64 // running value on D_i
	Stdev  float64 // bootstrap standard deviation
	CILo   float64 // 95% percentile confidence interval
	CIHi   float64
	RelStd float64 // relative standard deviation |stdev/value|
}

// MaxRelStdev returns the worst relative standard deviation across all
// uncertain cells of a result's estimates — a single accuracy number to stop
// on, and the accuracy axis of Figure 7(a). Cells without spread (certain or
// non-numeric) do not count.
func MaxRelStdev(ests [][]Estimate) float64 {
	worst := 0.0
	for _, row := range ests {
		for _, e := range row {
			if e.Stdev > 0 && e.RelStd > worst {
				worst = e.RelStd
			}
		}
	}
	return worst
}

// Summarize computes an Estimate from the running value and its replicate
// outputs (one selection shared by both confidence bounds).
func Summarize(value float64, reps []float64) Estimate {
	e, _ := SummarizeInto(value, reps, nil)
	return e
}

// SummarizeInto is Summarize with a caller-owned selection buffer: reps is
// copied into scratch (grown as needed), and the four order statistics the
// confidence bounds interpolate between are selected there — the values a
// sort would put in those places, without sorting. A caller summarising many
// groups pays one buffer for all of them. The (possibly grown) scratch is
// returned for reuse; reps itself is never reordered. The bounds equal a
// full sort's bit for bit, except that where reps mix −0 and +0 a zero
// bound may carry the other sign: neither orders the two zeros.
func SummarizeInto(value float64, reps []float64, scratch []float64) (Estimate, []float64) {
	e := Estimate{Value: value}
	if len(reps) == 0 {
		return e, scratch
	}
	e.Stdev = Stdev(reps)
	if cap(scratch) < len(reps) {
		scratch = make([]float64, len(reps))
	}
	sel := scratch[:len(reps)]
	copy(sel, reps)
	selectQuantiles(sel, 0.025, 0.975)
	e.CILo = quantileSorted(sel, 0.025)
	e.CIHi = quantileSorted(sel, 0.975)
	if value != 0 {
		e.RelStd = math.Abs(e.Stdev / value)
	} else {
		e.RelStd = e.Stdev
	}
	return e, scratch
}
