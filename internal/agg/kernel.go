// Flat replicate kernels: structure-of-arrays accumulator banks for the
// builtin aggregates. The piggybacked bootstrap (Section 2, Appendix C)
// makes every input tuple touch B≈100 replicate accumulators per aggregate;
// with one heap-allocated interface object per replicate that is B virtual
// calls and B cache lines per tuple. A bank packs the whole (main + B
// replicates) state of one (aggregate, group) pair into a single
// []float64 of stateWidth×(B+1): field f occupies the contiguous run
// bank[f·(B+1) : (f+1)·(B+1)], slot 0 within a field is the main
// accumulator and slot 1+b is replicate b. The fused per-kind kernels
// below run the whole weight vector in one pass over those contiguous
// runs, so the inner loop is branch-free loads/FMAs the compiler keeps in
// registers.
//
// Bit-identity: every kernel performs exactly the floating-point
// operations of the corresponding interface accumulator (agg.go), on the
// same values, in the same order — w := mult·poisson[b] as one multiply,
// sum += v·w, sumSq += (v·v)·w, the same comparison and NaN branches for
// MIN/MAX — so a bank and the interface oracle produce byte-identical
// float64 results for any input sequence. The equivalence fuzz in
// kernel_test.go asserts this with math.Float64bits.
package agg

import "math"

// kernelKind selects a fused bank kernel; kOpaque means "no kernel" — the
// accumulator stays on the interface path (UDAFs, COUNT(DISTINCT)).
type kernelKind uint8

const (
	kOpaque kernelKind = iota
	kSum
	kCount
	kAvg
	kVar
	kStddev
	kMin
	kMax
)

// width returns the per-slot state width in float64s (0 = not bankable).
// MIN/MAX carry the value and a 0/1 "set" flag; VAR/STDDEV carry
// (sum, sumSq, n); AVG carries (sum, n).
func (k kernelKind) width() int {
	switch k {
	case kSum, kCount:
		return 1
	case kAvg, kMin, kMax:
		return 2
	case kVar, kStddev:
		return 3
	}
	return 0
}

// bankAddMain folds one input into the main slot (slot 0) with weight mult —
// the Main.Add(val, mult) of the interface path.
func bankAddMain(k kernelKind, bank []float64, slots int, val, mult float64) {
	switch k {
	case kSum:
		bank[0] += val * mult
	case kCount:
		bank[0] += mult
	case kAvg:
		bank[0] += val * mult
		bank[slots] += mult
	case kVar, kStddev:
		bank[0] += val * mult
		bank[slots] += val * val * mult
		bank[2*slots] += mult
	case kMin:
		if mult > 0 && (bank[slots] == 0 || val < bank[0]) {
			bank[0] = val
			bank[slots] = 1
		}
	case kMax:
		if mult > 0 && (bank[slots] == 0 || val > bank[0]) {
			bank[0] = val
			bank[slots] = 1
		}
	}
}

// bankAddRange folds one input into replicates [lo, hi): replicate b gets
// weight mult·poisson[b] (mult when poisson is nil) and value reps[b] when a
// per-trial value vector is given (falling back to val past its end), exactly
// like Vector.AddRep on the interface path. The range form is what lets
// AddBatchRun split the replicate dimension across workers over disjoint
// bank slices.
func bankAddRange(k kernelKind, bank []float64, slots, lo, hi int, val float64, reps []float64, mult float64, poisson []float64) {
	switch k {
	case kSum:
		s := bank[1+lo : 1+hi]
		switch {
		case reps == nil && poisson != nil:
			w := poisson[lo:hi]
			s := s[:len(w)]
			for i := range w {
				s[i] += val * (mult * w[i])
			}
		case reps == nil:
			for i := range s {
				s[i] += val * mult
			}
		default:
			for b := lo; b < hi; b++ {
				w := mult
				if poisson != nil {
					w *= poisson[b]
				}
				x := val
				if b < len(reps) {
					x = reps[b]
				}
				bank[1+b] += x * w
			}
		}
	case kCount:
		s := bank[1+lo : 1+hi]
		if poisson != nil {
			w := poisson[lo:hi]
			s := s[:len(w)]
			for i := range w {
				s[i] += mult * w[i]
			}
		} else {
			for i := range s {
				s[i] += mult
			}
		}
	case kAvg:
		sums := bank[1+lo : 1+hi]
		ns := bank[slots+1+lo : slots+1+hi]
		switch {
		case reps == nil && poisson != nil:
			w := poisson[lo:hi]
			sums, ns := sums[:len(w)], ns[:len(w)]
			for i := range w {
				ww := mult * w[i]
				sums[i] += val * ww
				ns[i] += ww
			}
		case reps == nil:
			for i := range sums {
				sums[i] += val * mult
				ns[i] += mult
			}
		default:
			for b := lo; b < hi; b++ {
				w := mult
				if poisson != nil {
					w *= poisson[b]
				}
				x := val
				if b < len(reps) {
					x = reps[b]
				}
				bank[1+b] += x * w
				bank[slots+1+b] += w
			}
		}
	case kVar, kStddev:
		sums := bank[1+lo : 1+hi]
		sqs := bank[slots+1+lo : slots+1+hi]
		ns := bank[2*slots+1+lo : 2*slots+1+hi]
		switch {
		case reps == nil && poisson != nil:
			// Reslicing every field run to the weight window proves the
			// indexes in bounds (no per-iteration checks); val·val is the
			// same subexpression each iteration, hoisted without changing
			// the (val·val)·w association the oracle uses.
			w := poisson[lo:hi]
			sums, sqs, ns := sums[:len(w)], sqs[:len(w)], ns[:len(w)]
			vv := val * val
			for i := range w {
				ww := mult * w[i]
				sums[i] += val * ww
				sqs[i] += vv * ww
				ns[i] += ww
			}
		case reps == nil:
			sqs, ns := sqs[:len(sums)], ns[:len(sums)]
			vv := val * val
			for i := range sums {
				sums[i] += val * mult
				sqs[i] += vv * mult
				ns[i] += mult
			}
		default:
			for b := lo; b < hi; b++ {
				w := mult
				if poisson != nil {
					w *= poisson[b]
				}
				x := val
				if b < len(reps) {
					x = reps[b]
				}
				bank[1+b] += x * w
				bank[slots+1+b] += x * x * w
				bank[2*slots+1+b] += w
			}
		}
	case kMin:
		vals := bank[1+lo : 1+hi]
		set := bank[slots+1+lo : slots+1+hi]
		if reps == nil && poisson != nil && mult > 0 {
			// Fast path: mult·w > 0 reduces to w > 0 (Poisson weights are
			// non-negative), so the weight product drops out entirely. The
			// value test runs before the weight test — same verdict (pure
			// conditions), but in steady state "val improves the slot" is
			// rare and predictable while w > 0 is a ~63/37 coin flip, so
			// short-circuiting on the value spares the branch predictor the
			// per-replicate weight check.
			w := poisson[lo:hi]
			vals, set := vals[:len(w)], set[:len(w)]
			for i := range w {
				if (set[i] == 0 || val < vals[i]) && w[i] > 0 {
					vals[i] = val
					set[i] = 1
				}
			}
			return
		}
		for i := range vals {
			b := lo + i
			w := mult
			if poisson != nil {
				w *= poisson[b]
			}
			if w <= 0 {
				continue
			}
			x := val
			if reps != nil && b < len(reps) {
				x = reps[b]
			}
			if set[i] == 0 || x < vals[i] {
				vals[i] = x
				set[i] = 1
			}
		}
	case kMax:
		vals := bank[1+lo : 1+hi]
		set := bank[slots+1+lo : slots+1+hi]
		if reps == nil && poisson != nil && mult > 0 {
			// Value test first for the branch predictor, as in kMin.
			w := poisson[lo:hi]
			vals, set := vals[:len(w)], set[:len(w)]
			for i := range w {
				if (set[i] == 0 || val > vals[i]) && w[i] > 0 {
					vals[i] = val
					set[i] = 1
				}
			}
			return
		}
		for i := range vals {
			b := lo + i
			w := mult
			if poisson != nil {
				w *= poisson[b]
			}
			if w <= 0 {
				continue
			}
			x := val
			if reps != nil && b < len(reps) {
				x = reps[b]
			}
			if set[i] == 0 || x > vals[i] {
				vals[i] = x
				set[i] = 1
			}
		}
	}
}

// bankMerge folds bank o into bank a (same kind, same slot count). Additive
// kinds merge element-wise; MIN/MAX replay the interface Merge's
// "Add(other.val, 1) when other is set" per slot.
func bankMerge(k kernelKind, a, o []float64, slots int) {
	switch k {
	case kSum, kCount, kAvg, kVar, kStddev:
		for i := range a {
			a[i] += o[i]
		}
	case kMin:
		for i := 0; i < slots; i++ {
			if o[slots+i] != 0 && (a[slots+i] == 0 || o[i] < a[i]) {
				a[i] = o[i]
				a[slots+i] = 1
			}
		}
	case kMax:
		for i := 0; i < slots; i++ {
			if o[slots+i] != 0 && (a[slots+i] == 0 || o[i] > a[i]) {
				a[i] = o[i]
				a[slots+i] = 1
			}
		}
	}
}

// bankResult reads one slot's aggregate value under the extensive scale —
// the Result of the interface accumulators, formula for formula.
func bankResult(k kernelKind, bank []float64, slots, slot int, scale float64) float64 {
	switch k {
	case kSum, kCount:
		return bank[slot] * scale
	case kAvg:
		n := bank[slots+slot]
		if n == 0 {
			return math.NaN()
		}
		return bank[slot] / n
	case kVar, kStddev:
		n := bank[2*slots+slot]
		if n == 0 {
			return math.NaN()
		}
		m := bank[slot] / n
		v := bank[slots+slot]/n - m*m
		if v < 0 {
			v = 0 // numerical floor
		}
		if k == kStddev {
			return math.Sqrt(v)
		}
		return v
	case kMin, kMax:
		if bank[slots+slot] == 0 {
			return math.NaN()
		}
		return bank[slot]
	}
	return math.NaN()
}
