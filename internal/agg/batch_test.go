package agg

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
)

// batchCase is one randomized columnar batch: a weight slab over nRows
// physical rows and a gathered run (vals/mults/rows) indexing into it. The
// run models what the columnar gather hands AddBatch after NULL filtering:
// a skewed, gappy, possibly duplicated selection of the physical rows, with
// NaN/±Inf values and zero/negative multiplicities mixed in.
type batchCase struct {
	trials int
	slab   []float64
	vals   []float64
	mults  []float64
	rows   []int32
}

func randomBatch(rng *rand.Rand, withSlab bool) batchCase {
	c := batchCase{trials: 1 + rng.Intn(96)}
	nRows := 1 + rng.Intn(200)
	if withSlab {
		c.slab = make([]float64, nRows*c.trials)
		for i := range c.slab {
			c.slab[i] = float64(rng.Intn(4)) // Poisson-like: 0..3, ~25% zeros
		}
	}
	// Special values are NaN-flavored or Inf-flavored per case, never both:
	// NaN inputs propagate math.NaN's payload while Inf combinations
	// (Inf·0 against a zero weight, Inf + -Inf) mint the hardware's
	// indefinite NaN, and when an accumulator add meets two NaNs with
	// different payloads, which one survives is unspecified in Go —
	// codegen-dependent (it flips under -race), not a bit the kernels can
	// promise. One flavor per case keeps every NaN payload-identical, so
	// propagation stays bit-deterministic and both semantic classes keep
	// full coverage.
	nanFlavor := rng.Intn(2) == 0
	// Skewed selection: walk the physical rows with random gaps (dropped
	// "NULL" rows) and occasional repeats, so the run is neither dense nor
	// uniform.
	for r := 0; r < nRows; {
		if rng.Intn(3) == 0 { // gap
			r += 1 + rng.Intn(4)
			continue
		}
		val := float64(rng.Intn(4000)-2000) / 16.0
		switch rng.Intn(24) {
		case 0, 1:
			if nanFlavor {
				val = math.NaN()
			} else {
				val = math.Inf(1)
			}
		case 2:
			if nanFlavor {
				val = math.NaN()
			} else {
				val = math.Inf(-1)
			}
		}
		mult := float64(1 + rng.Intn(3))
		if rng.Intn(10) == 0 {
			mult = float64(rng.Intn(3) - 1) // 0 and negatives must fold like the row path
		}
		c.vals = append(c.vals, val)
		c.mults = append(c.mults, mult)
		c.rows = append(c.rows, int32(r))
		if rng.Intn(5) != 0 { // occasional duplicate keeps r in place
			r++
		}
	}
	return c
}

func (c batchCase) weights(j int) []float64 {
	if c.slab == nil {
		return nil
	}
	r := int(c.rows[j])
	return c.slab[r*c.trials : (r+1)*c.trials]
}

// batchBuiltins is every builtin aggregate: the seven kernel kinds plus
// COUNTD, which stays on the interface path and must round through
// AddBatch's per-entry fallback unchanged.
var batchBuiltins = append(append([]string{}, kernelKinds...), "COUNTD")

// entryForms derives the two per-entry input forms from a slab-less case:
// ws gives most entries a weight window of their own — not slices of one
// slab — and leaves the rest nil (rows of non-streamed provenance fold with
// weight 1), and reps gives every third entry per-replicate inputs, NaN and
// short vectors included (AddRep falls back to the value past the end).
func entryForms(rng *rand.Rand, c batchCase) (ws, reps [][]float64) {
	ws = make([][]float64, len(c.vals))
	reps = make([][]float64, len(c.vals))
	for j := range c.vals {
		if rng.Intn(4) > 0 {
			ws[j] = randWeights(rng, c.trials)
		}
		if j%3 == 0 {
			r := make([]float64, c.trials-rng.Intn(2))
			for b := range r {
				r[b] = c.vals[j] + float64(rng.Intn(64))/8.0
			}
			reps[j] = r
		}
	}
	return ws, reps
}

// FuzzAddBatchEquivalence drives the batch-ingest family through the same
// randomized runs for every builtin aggregate, demanding bit-identical
// results against the interface oracle fed entry by entry: AddBatch
// (slab-indexed windows) and AddBatchRun in its three input forms — windows
// cut from the slab, per-entry windows with nil holes, per-entry windows
// plus replicate inputs — inline and replicate-split under sequential and
// goroutine pmaps. This is the fold's half of the kernel contract: batching
// changes how many tuples one call carries, never a single floating-point
// op.
func FuzzAddBatchEquivalence(f *testing.F) {
	for s := int64(0); s < 12; s++ {
		f.Add(s)
	}
	goPmap := func(n int, fn func(i int)) {
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) { defer wg.Done(); fn(i) }(i)
		}
		wg.Wait()
	}
	seqPmap := func(n int, fn func(i int)) {
		for i := 0; i < n; i++ {
			fn(i)
		}
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		for _, withSlab := range []bool{true, false} {
			c := randomBatch(rng, withSlab)
			slabWs := make([][]float64, len(c.vals))
			for j := range slabWs {
				slabWs[j] = c.weights(j)
			}
			ownWs, ownReps := entryForms(rng, c)
			forms := []struct {
				name     string
				ws, reps [][]float64
			}{
				{"slab windows", slabWs, nil},
				{"entry windows", ownWs, nil},
				{"entry windows+reps", ownWs, ownReps},
			}
			for _, name := range batchBuiltins {
				fn := lookup(t, name)
				ctx := fmt.Sprintf("%s seed=%d slab=%v n=%d trials=%d", name, seed, withSlab, len(c.vals), c.trials)
				for fi, form := range forms {
					ov := NewVectorOracle(fn, c.trials)
					for j := range c.vals {
						var rp []float64
						if form.reps != nil {
							rp = form.reps[j]
						}
						ov.AddRep(c.vals[j], rp, c.mults[j], form.ws[j])
					}
					ctx := ctx + " " + form.name
					if fi == 0 {
						kb := NewVector(fn, c.trials)
						kb.AddBatch(c.vals, c.mults, c.slab, c.rows)
						bitsEqual(t, ctx+" AddBatch", kb, ov)
					}
					ki := NewVector(fn, c.trials)
					ki.AddBatchRun(c.vals, c.mults, form.ws, form.reps, nil, 0)
					bitsEqual(t, ctx+" AddBatchRun inline", ki, ov)
					for _, parts := range []int{2, 7, c.trials + 3} {
						kp := NewVector(fn, c.trials)
						kp.AddBatchRun(c.vals, c.mults, form.ws, form.reps, seqPmap, parts)
						bitsEqual(t, fmt.Sprintf("%s AddBatchRun seq parts=%d", ctx, parts), kp, ov)
						kg := NewVector(fn, c.trials)
						kg.AddBatchRun(c.vals, c.mults, form.ws, form.reps, goPmap, parts)
						bitsEqual(t, fmt.Sprintf("%s AddBatchRun goroutines parts=%d", ctx, parts), kg, ov)
					}
				}
			}
		}
	})
}

// TestAddBatchIncremental checks batching respects prior state: splitting
// one input sequence across several AddBatch calls (including empty ones)
// lands on the same bits as one per-tuple pass.
func TestAddBatchIncremental(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	c := randomBatch(rng, true)
	for _, name := range batchBuiltins {
		fn := lookup(t, name)
		ov := NewVectorOracle(fn, c.trials)
		for j := range c.vals {
			ov.Add(c.vals[j], c.mults[j], c.weights(j))
		}
		kb := NewVector(fn, c.trials)
		for lo := 0; lo < len(c.vals); {
			hi := lo + rng.Intn(len(c.vals)-lo+1)
			kb.AddBatch(c.vals[lo:hi], c.mults[lo:hi], c.slab, c.rows[lo:hi])
			lo = hi
		}
		bitsEqual(t, name+" incremental", kb, ov)
	}
}

// TestAddBatchZeroAllocs pins the batched fold: folding a pre-gathered run
// into a bank vector must not allocate, for any kernel kind.
func TestAddBatchZeroAllocs(t *testing.T) {
	const trials, rows = 100, 512
	slab := make([]float64, rows*trials)
	vals := make([]float64, rows)
	mults := make([]float64, rows)
	idx := make([]int32, rows)
	for i := 0; i < rows; i++ {
		vals[i] = float64(i) / 7.0
		mults[i] = 1
		idx[i] = int32(i)
		for b := 0; b < trials; b++ {
			slab[i*trials+b] = float64((i + b) % 3)
		}
	}
	for _, name := range kernelKinds {
		fn := lookup(t, name)
		v := NewVector(fn, trials)
		if got := testing.AllocsPerRun(5, func() {
			v.Reset()
			v.AddBatch(vals, mults, slab, idx)
		}); got != 0 {
			t.Errorf("%s AddBatch allocates %v per %d-row batch, want 0", name, got, rows)
		}
	}
}
