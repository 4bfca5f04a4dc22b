package agg

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
)

// kernelKinds are the builtins with a fused SoA bank kernel; COUNTD stays
// on the interface path by design and needs no equivalence check.
var kernelKinds = []string{"SUM", "COUNT", "AVG", "VAR", "STDDEV", "MIN", "MAX"}

// bitsEqual compares two vectors' full output surface — main result plus
// every replicate, at two scales — by float64 bit pattern (NaN == NaN).
func bitsEqual(t *testing.T, ctx string, kv, ov *Vector) {
	t.Helper()
	for _, scale := range []float64{1, 2.5} {
		if math.Float64bits(kv.Result(scale)) != math.Float64bits(ov.Result(scale)) {
			t.Fatalf("%s: main result diverged at scale %v: kernel %v oracle %v",
				ctx, scale, kv.Result(scale), ov.Result(scale))
		}
		kr := kv.RepResults(scale, nil)
		or := ov.RepResults(scale, nil)
		for b := range kr {
			if math.Float64bits(kr[b]) != math.Float64bits(or[b]) {
				t.Fatalf("%s: replicate %d diverged at scale %v: kernel %v (%016x) oracle %v (%016x)",
					ctx, b, scale, kr[b], math.Float64bits(kr[b]), or[b], math.Float64bits(or[b]))
			}
		}
	}
}

// randWeights draws a Poisson-like weight vector: mostly small non-negative
// integers with occasional zeros, the shape the bootstrap produces.
func randWeights(rng *rand.Rand, trials int) []float64 {
	w := make([]float64, trials)
	for i := range w {
		w[i] = float64(rng.Intn(4)) // 0..3, ~25% zeros
	}
	return w
}

// TestKernelOracleEquivalenceFuzz drives a kernel vector and an interface
// oracle vector through the same randomized operation sequence —
// Add/AddRep (with and without per-trial value vectors and weight
// vectors), Merge, Clone, Reset — and demands
// bit-identical results after every step. This is the contract the whole
// PR rests on: the bank representation is a layout change, not a numeric
// one.
func TestKernelOracleEquivalenceFuzz(t *testing.T) {
	const trials = 37 // odd, not a multiple of anything interesting
	for _, name := range kernelKinds {
		t.Run(name, func(t *testing.T) {
			fn := lookup(t, name)
			if fn.kind == kOpaque {
				t.Fatalf("%s has no kernel", name)
			}
			for seed := int64(0); seed < 8; seed++ {
				rng := rand.New(rand.NewSource(seed*7919 + 1))
				kv, ov := NewVector(fn, trials), NewVectorOracle(fn, trials)
				if kv.bank == nil {
					t.Fatal("NewVector did not pick the bank path")
				}
				if ov.bank != nil {
					t.Fatal("NewVectorOracle picked the bank path")
				}
				for step := 0; step < 200; step++ {
					val := float64(rng.Intn(2000)-1000) / 8.0
					mult := float64(1 + rng.Intn(3))
					var w []float64
					if rng.Intn(4) > 0 {
						w = randWeights(rng, trials)
					}
					ctx := fmt.Sprintf("seed %d step %d", seed, step)
					switch op := rng.Intn(10); {
					case op < 4: // Add
						kv.Add(val, mult, w)
						ov.Add(val, mult, w)
					case op < 6: // AddRep with a per-trial value vector
						reps := make([]float64, trials)
						for i := range reps {
							reps[i] = val + float64(rng.Intn(100))/16.0
						}
						kv.AddRep(val, reps, mult, w)
						ov.AddRep(val, reps, mult, w)
					case op < 8: // Merge a freshly built pair
						ko, oo := NewVector(fn, trials), NewVectorOracle(fn, trials)
						for j := 0; j < 3; j++ {
							v2 := float64(rng.Intn(500)) / 4.0
							w2 := randWeights(rng, trials)
							ko.Add(v2, 1, w2)
							oo.Add(v2, 1, w2)
						}
						kv.Merge(ko)
						ov.Merge(oo)
					case op < 9: // a materialized snapshot must be isolated and equivalent
						kc, oc := kv.SnapshotInto(nil).Materialize(), ov.SnapshotInto(nil).Materialize()
						bitsEqual(t, ctx+" (clone)", kc, oc)
						kc.Add(1, 1, nil)
						bitsEqual(t, ctx+" (clone isolation)", kv, ov)
					default: // Reset, occasionally, to re-seed the state
						if rng.Intn(4) == 0 {
							kv.Reset()
							ov.Reset()
						}
					}
					bitsEqual(t, ctx, kv, ov)
				}
			}
		})
	}
}

// foldRun is a gathered run in AddBatchRun's per-entry form: every entry
// carries its own weight window, every fifth one replicate inputs.
type foldRun struct {
	vals, mults []float64
	ws, reps    [][]float64
}

func randomFoldRun(rng *rand.Rand, n, trials int) foldRun {
	r := foldRun{
		vals: make([]float64, n), mults: make([]float64, n),
		ws: make([][]float64, n), reps: make([][]float64, n),
	}
	for i := 0; i < n; i++ {
		r.vals[i] = float64(rng.Intn(4000)-2000) / 16.0
		r.mults[i] = float64(1 + rng.Intn(2))
		r.ws[i] = randWeights(rng, trials)
		if i%5 == 0 {
			reps := make([]float64, trials)
			for b := range reps {
				reps[b] = r.vals[i] + float64(b%7)
			}
			r.reps[i] = reps
		}
	}
	return r
}

// TestKernelFoldEquivalence checks AddBatchRun over per-entry weights and
// replicate inputs — inline, and replicate-split under a sequential pmap and
// a real goroutine pmap — against per-entry oracle AddReps, bit for bit. The
// split hands workers disjoint bank slices; each slot still receives its
// exact sequential Add sequence.
func TestKernelFoldEquivalence(t *testing.T) {
	const trials = 50
	run := randomFoldRun(rand.New(rand.NewSource(99)), 300, trials)
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
	for _, name := range kernelKinds {
		t.Run(name, func(t *testing.T) {
			fn := lookup(t, name)
			ov := NewVectorOracle(fn, trials)
			for i := range run.vals {
				ov.AddRep(run.vals[i], run.reps[i], run.mults[i], run.ws[i])
			}
			kf := NewVector(fn, trials)
			kf.AddBatchRun(run.vals, run.mults, run.ws, run.reps, nil, 0)
			bitsEqual(t, "AddBatchRun inline", kf, ov)
			for _, parts := range []int{2, 3, 7, trials + 5} {
				kp := NewVector(fn, trials)
				kp.AddBatchRun(run.vals, run.mults, run.ws, run.reps, seqPmap, parts)
				bitsEqual(t, fmt.Sprintf("AddBatchRun seq parts=%d", parts), kp, ov)
				kg := NewVector(fn, trials)
				kg.AddBatchRun(run.vals, run.mults, run.ws, run.reps, goPmap, parts)
				bitsEqual(t, fmt.Sprintf("AddBatchRun goroutines parts=%d", parts), kg, ov)
			}
		})
	}
}

// TestVectorAddZeroAllocs pins the per-tuple hot path: folding a value into
// a bank vector — main slot plus all B replicates, with a Poisson weight
// vector — must not allocate. This is the property the whole flat-bank
// design buys; any regression here multiplies by rows×aggregates×batches.
func TestVectorAddZeroAllocs(t *testing.T) {
	const trials = 100
	w := make([]float64, trials)
	for i := range w {
		w[i] = float64(i % 3)
	}
	reps := make([]float64, trials)
	for _, name := range kernelKinds {
		fn := lookup(t, name)
		v := NewVector(fn, trials)
		if got := testing.AllocsPerRun(100, func() {
			v.Add(3.25, 1, w)
		}); got != 0 {
			t.Errorf("%s Vector.Add allocates %v per call, want 0", name, got)
		}
		if got := testing.AllocsPerRun(100, func() {
			v.AddRep(3.25, reps, 1, w)
		}); got != 0 {
			t.Errorf("%s Vector.AddRep allocates %v per call, want 0", name, got)
		}
	}
}

// TestFoldZeroAllocs pins the steady-state batch fold over per-entry
// weights and replicate inputs at zero allocations per tuple, inline and
// replicate-split under a goroutine-free pmap (the engine's pool owns its
// goroutines; what must not allocate is the per-tuple arithmetic).
func TestFoldZeroAllocs(t *testing.T) {
	const trials, rows = 100, 512
	run := randomFoldRun(rand.New(rand.NewSource(7)), rows, trials)
	seqPmap := func(n int, fn func(i int)) {
		for i := 0; i < n; i++ {
			fn(i)
		}
	}
	for _, name := range kernelKinds {
		fn := lookup(t, name)
		v := NewVector(fn, trials)
		if got := testing.AllocsPerRun(5, func() {
			v.Reset()
			v.AddBatchRun(run.vals, run.mults, run.ws, run.reps, nil, 0)
		}); got != 0 {
			t.Errorf("%s AddBatchRun allocates %v per %d-row batch, want 0", name, got, rows)
		}
		// The split spends exactly one allocation per batch on the closure
		// it hands the pool — O(1) per batch regardless of row count, never
		// per tuple. Pin it at that constant so a per-tuple regression (which
		// would show up as ~rows allocations) cannot hide behind it.
		if got := testing.AllocsPerRun(5, func() {
			v.Reset()
			v.AddBatchRun(run.vals, run.mults, run.ws, run.reps, seqPmap, 4)
		}); got > 1 {
			t.Errorf("%s split AddBatchRun allocates %v per %d-row batch, want <= 1 (the pmap closure)", name, got, rows)
		}
	}
}
