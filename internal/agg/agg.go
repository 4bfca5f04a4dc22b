// Package agg implements aggregate functions and their sketch accumulators.
//
// An aggregate's running state over the certain part of its input is a
// sketch (Section 4.2: "any aggregate function that can be computed using
// sub-linear space can maintain the state of AGGREGATE space-efficiently
// using sketches"). Every aggregate instance additionally maintains B
// bootstrap replicate accumulators fed with Poisson(1) weights, which is the
// piggybacked bootstrap of Appendix C.
//
// Scaling semantics (Section 2): the partial result at batch i is
// Q(D_i, m_i) with m_i = |D|/|D_i|. Sketches hold raw (unscaled)
// accumulations; extensive aggregates (SUM, COUNT) multiply by the current
// scale when read, intensive ones (AVG, VAR, ...) are scale-free, so the
// changing m_i never forces sketch rebuilds.
package agg

import (
	"fmt"
	"math"
	"strings"
	"sync"
)

// Accumulator is the incremental state of one aggregate over one group.
type Accumulator interface {
	// Add folds in one value with the given weight (tuple multiplicity,
	// possibly multiplied by a bootstrap Poisson weight).
	Add(v float64, weight float64)
	// Result reads the raw aggregate given the extensive scale factor.
	Result(scale float64) float64
	// Merge folds another accumulator of the same type into this one.
	Merge(o Accumulator)
	// Clone deep-copies the accumulator (state snapshots).
	Clone() Accumulator
	// Reset returns the accumulator to its zero state (scratch reuse).
	Reset()
	// SizeBytes estimates the in-memory footprint.
	SizeBytes() int
}

// Func describes an aggregate function.
type Func struct {
	Name string
	// TakesArg is false for COUNT(*).
	TakesArg bool
	// Smooth marks Hadamard-differentiable aggregates whose bootstrap
	// error estimates are valid under sampling (Section 3.3). MIN/MAX are
	// not smooth; they are supported exactly but get one-sided monotone
	// variation ranges instead of bootstrap ranges.
	Smooth bool
	// AcceptsAny marks aggregates whose argument may be non-numeric
	// (COUNT(DISTINCT x)); callers feed rel.Value.NumericKey instead of
	// skipping non-numeric inputs.
	AcceptsAny bool
	// New allocates a fresh accumulator.
	New func() Accumulator
	// kind selects the fused SoA bank kernel (kernel.go). Only the builtins
	// set it; UDAF registrations leave the zero value (kOpaque) and stay on
	// the interface path, as does COUNT(DISTINCT), whose state is a map.
	kind kernelKind
}

// Registry maps aggregate names to implementations; it is preloaded with the
// builtins and accepts UDAF registrations (paper Section 1, workload C8-C10).
type Registry struct {
	mu  sync.RWMutex
	fns map[string]*Func
}

// NewRegistry returns a registry with the builtin aggregates.
func NewRegistry() *Registry {
	r := &Registry{fns: make(map[string]*Func)}
	for _, f := range builtinAggs() {
		f := f
		r.fns[f.Name] = &f
	}
	return r
}

// Register installs a user-defined aggregate function (UDAF).
func (r *Registry) Register(f Func) error {
	if f.Name == "" || f.New == nil {
		return fmt.Errorf("agg: invalid aggregate registration %q", f.Name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.fns[strings.ToUpper(f.Name)] = &f
	return nil
}

// Lookup finds an aggregate by (case-insensitive) name.
func (r *Registry) Lookup(name string) (*Func, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	f, ok := r.fns[strings.ToUpper(name)]
	return f, ok
}

// ---------------------------------------------------------------------------
// Builtin accumulators

// sumAcc accumulates a weighted sum; COUNT is a sum of weights.
type sumAcc struct{ sum float64 }

func (a *sumAcc) Add(v, w float64)             { a.sum += v * w }
func (a *sumAcc) Result(scale float64) float64 { return a.sum * scale }
func (a *sumAcc) Merge(o Accumulator)          { a.sum += o.(*sumAcc).sum }
func (a *sumAcc) Clone() Accumulator           { c := *a; return &c }
func (a *sumAcc) Reset()                       { a.sum = 0 }
func (a *sumAcc) SizeBytes() int               { return 16 }

type countAcc struct{ n float64 }

func (a *countAcc) Add(_, w float64)             { a.n += w }
func (a *countAcc) Result(scale float64) float64 { return a.n * scale }
func (a *countAcc) Merge(o Accumulator)          { a.n += o.(*countAcc).n }
func (a *countAcc) Clone() Accumulator           { c := *a; return &c }
func (a *countAcc) Reset()                       { a.n = 0 }
func (a *countAcc) SizeBytes() int               { return 16 }

// avgAcc is scale-free: sum/count cancels m_i.
type avgAcc struct{ sum, n float64 }

func (a *avgAcc) Add(v, w float64) { a.sum += v * w; a.n += w }
func (a *avgAcc) Result(float64) float64 {
	if a.n == 0 {
		return math.NaN()
	}
	return a.sum / a.n
}
func (a *avgAcc) Merge(o Accumulator) {
	b := o.(*avgAcc)
	a.sum += b.sum
	a.n += b.n
}
func (a *avgAcc) Clone() Accumulator { c := *a; return &c }
func (a *avgAcc) Reset()             { a.sum, a.n = 0, 0 }
func (a *avgAcc) SizeBytes() int     { return 24 }

// varAcc computes the weighted population variance (scale-free).
type varAcc struct{ sum, sumSq, n float64 }

func (a *varAcc) Add(v, w float64) { a.sum += v * w; a.sumSq += v * v * w; a.n += w }
func (a *varAcc) Result(float64) float64 {
	if a.n == 0 {
		return math.NaN()
	}
	m := a.sum / a.n
	v := a.sumSq/a.n - m*m
	if v < 0 {
		v = 0 // numerical floor
	}
	return v
}
func (a *varAcc) Merge(o Accumulator) {
	b := o.(*varAcc)
	a.sum += b.sum
	a.sumSq += b.sumSq
	a.n += b.n
}
func (a *varAcc) Clone() Accumulator { c := *a; return &c }
func (a *varAcc) Reset()             { a.sum, a.sumSq, a.n = 0, 0, 0 }
func (a *varAcc) SizeBytes() int     { return 32 }

type stddevAcc struct{ varAcc }

func (a *stddevAcc) Result(scale float64) float64 {
	return math.Sqrt(a.varAcc.Result(scale))
}
func (a *stddevAcc) Merge(o Accumulator) { a.varAcc.Merge(&o.(*stddevAcc).varAcc) }
func (a *stddevAcc) Clone() Accumulator  { c := *a; return &c }

// minAcc / maxAcc are exact but non-smooth.
type minAcc struct {
	val float64
	set bool
}

func (a *minAcc) Add(v, w float64) {
	if w <= 0 {
		return
	}
	if !a.set || v < a.val {
		a.val = v
		a.set = true
	}
}
func (a *minAcc) Result(float64) float64 {
	if !a.set {
		return math.NaN()
	}
	return a.val
}
func (a *minAcc) Merge(o Accumulator) {
	b := o.(*minAcc)
	if b.set {
		a.Add(b.val, 1)
	}
}
func (a *minAcc) Clone() Accumulator { c := *a; return &c }
func (a *minAcc) Reset()             { a.val, a.set = 0, false }
func (a *minAcc) SizeBytes() int     { return 16 }

type maxAcc struct {
	val float64
	set bool
}

func (a *maxAcc) Add(v, w float64) {
	if w <= 0 {
		return
	}
	if !a.set || v > a.val {
		a.val = v
		a.set = true
	}
}
func (a *maxAcc) Result(float64) float64 {
	if !a.set {
		return math.NaN()
	}
	return a.val
}
func (a *maxAcc) Merge(o Accumulator) {
	b := o.(*maxAcc)
	if b.set {
		a.Add(b.val, 1)
	}
}
func (a *maxAcc) Clone() Accumulator { c := *a; return &c }
func (a *maxAcc) Reset()             { a.val, a.set = 0, false }
func (a *maxAcc) SizeBytes() int     { return 16 }

// distinctAcc counts distinct (numeric) values exactly. It is not smooth
// (bootstrap resampling biases distinct counts) and its result does not
// scale with m_i: COUNT(DISTINCT x) on a partial prefix reports the
// distinct values seen so far, an exact answer about D_i.
type distinctAcc struct {
	seen map[float64]struct{}
}

func (a *distinctAcc) Add(v, w float64) {
	if w <= 0 {
		return
	}
	if a.seen == nil {
		a.seen = make(map[float64]struct{})
	}
	a.seen[v] = struct{}{}
}
func (a *distinctAcc) Result(float64) float64 { return float64(len(a.seen)) }
func (a *distinctAcc) Merge(o Accumulator) {
	b := o.(*distinctAcc)
	for v := range b.seen {
		a.Add(v, 1)
	}
}
func (a *distinctAcc) Clone() Accumulator {
	c := &distinctAcc{}
	if a.seen != nil {
		c.seen = make(map[float64]struct{}, len(a.seen))
		for v := range a.seen {
			c.seen[v] = struct{}{}
		}
	}
	return c
}
func (a *distinctAcc) Reset()         { a.seen = nil }
func (a *distinctAcc) SizeBytes() int { return 48 + 16*len(a.seen) }

func builtinAggs() []Func {
	return []Func{
		{Name: "SUM", TakesArg: true, Smooth: true, kind: kSum,
			New: func() Accumulator { return &sumAcc{} }},
		{Name: "COUNT", TakesArg: false, Smooth: true,
			AcceptsAny: true, // COUNT(expr) counts non-NULL rows of any type
			kind:       kCount,
			New:        func() Accumulator { return &countAcc{} }},
		{Name: "AVG", TakesArg: true, Smooth: true, kind: kAvg,
			New: func() Accumulator { return &avgAcc{} }},
		{Name: "VAR", TakesArg: true, Smooth: true, kind: kVar,
			New: func() Accumulator { return &varAcc{} }},
		{Name: "STDDEV", TakesArg: true, Smooth: true, kind: kStddev,
			New: func() Accumulator { return &stddevAcc{} }},
		{Name: "MIN", TakesArg: true, Smooth: false, kind: kMin,
			New: func() Accumulator { return &minAcc{} }},
		{Name: "COUNTD", TakesArg: true, Smooth: false,
			AcceptsAny: true,
			New:        func() Accumulator { return &distinctAcc{} }},
		{Name: "MAX", TakesArg: true, Smooth: false, kind: kMax,
			New: func() Accumulator { return &maxAcc{} }},
	}
}

// ---------------------------------------------------------------------------
// Replicate vectors

// Vector bundles the main accumulator with B bootstrap replicate
// accumulators for one (aggregate, group) pair. Builtin numeric aggregates
// store the whole vector as one contiguous SoA bank of (B+1)·stateWidth
// float64s driven by the fused kernels in kernel.go; UDAFs and
// COUNT(DISTINCT) fall back to one interface accumulator per replicate.
// Both representations perform identical floating-point operations in the
// same order, so results are bit-identical (NewVectorOracle forces the
// interface path for FuzzAddBatchEquivalence).
type Vector struct {
	Fn     *Func
	trials int
	// bank is the SoA state (kernel path); nil on the interface path.
	bank []float64
	// main/reps are the interface path (oracle, UDAFs, COUNT(DISTINCT)).
	main Accumulator
	reps []Accumulator
}

// NewVector allocates a vector with the given replicate count, using the
// flat bank representation whenever the aggregate has a fused kernel.
func NewVector(fn *Func, trials int) *Vector {
	if w := fn.kind.width(); w > 0 {
		return &Vector{Fn: fn, trials: trials, bank: make([]float64, w*(trials+1))}
	}
	return NewVectorOracle(fn, trials)
}

// NewVectorOracle allocates a vector on the per-replicate interface path
// regardless of the aggregate's kernel — the reference implementation the
// kernel equivalence fuzz and the before/after benchmarks compare against.
func NewVectorOracle(fn *Func, trials int) *Vector {
	v := &Vector{Fn: fn, trials: trials, main: fn.New(), reps: make([]Accumulator, trials)}
	for i := range v.reps {
		v.reps[i] = fn.New()
	}
	return v
}

// slots returns the per-field bank length (main + B replicates).
func (v *Vector) slots() int { return v.trials + 1 }

// Add folds one input value: mult into the main accumulator, mult times the
// Poisson weight into each replicate. poisson may be nil for inputs from
// non-streamed relations (constant weight 1 per trial).
func (v *Vector) Add(val, mult float64, poisson []float64) {
	if v.bank != nil {
		k, s := v.Fn.kind, v.slots()
		bankAddMain(k, v.bank, s, val, mult)
		bankAddRange(k, v.bank, s, 0, v.trials, val, nil, mult, poisson)
		return
	}
	v.main.Add(val, mult)
	for b, acc := range v.reps {
		w := mult
		if poisson != nil {
			w *= poisson[b]
		}
		acc.Add(val, w)
	}
}

// AddRep folds a value whose replicates differ per trial (the aggregated
// column itself is uncertain): vals[b] is the b-th replicate input value.
func (v *Vector) AddRep(val float64, vals []float64, mult float64, poisson []float64) {
	if v.bank != nil {
		k, s := v.Fn.kind, v.slots()
		bankAddMain(k, v.bank, s, val, mult)
		if vals == nil {
			bankAddRange(k, v.bank, s, 0, v.trials, val, nil, mult, poisson)
		} else {
			bankAddRange(k, v.bank, s, 0, v.trials, val, vals, mult, poisson)
		}
		return
	}
	v.main.Add(val, mult)
	for b, acc := range v.reps {
		w := mult
		if poisson != nil {
			w *= poisson[b]
		}
		x := val
		if b < len(vals) {
			x = vals[b]
		}
		acc.Add(x, w)
	}
}

// Merge folds another vector (same function, same trial count, same
// representation — vectors only ever merge with vectors built by the same
// constructor).
func (v *Vector) Merge(o *Vector) {
	if v.bank != nil {
		if o.bank == nil {
			panic("agg: Merge across vector representations")
		}
		bankMerge(v.Fn.kind, v.bank, o.bank, v.slots())
		return
	}
	v.main.Merge(o.main)
	for b := range v.reps {
		v.reps[b].Merge(o.reps[b])
	}
}

// Result reads the running value under the given extensive scale.
func (v *Vector) Result(scale float64) float64 {
	if v.bank != nil {
		return bankResult(v.Fn.kind, v.bank, v.slots(), 0, scale)
	}
	return v.main.Result(scale)
}

// RepResults reads all replicate values under the given scale into dst
// (allocated when nil).
func (v *Vector) RepResults(scale float64, dst []float64) []float64 {
	if dst == nil {
		dst = make([]float64, v.trials)
	}
	if v.bank != nil {
		k, s := v.Fn.kind, v.slots()
		for b := 0; b < v.trials; b++ {
			dst[b] = bankResult(k, v.bank, s, 1+b, scale)
		}
		return dst
	}
	for b, acc := range v.reps {
		dst[b] = acc.Result(scale)
	}
	return dst
}

// Reset zeroes every accumulator for scratch reuse across batches.
func (v *Vector) Reset() {
	if v.bank != nil {
		for i := range v.bank {
			v.bank[i] = 0
		}
		return
	}
	v.main.Reset()
	for _, r := range v.reps {
		r.Reset()
	}
}

// SizeBytes estimates the vector's footprint.
func (v *Vector) SizeBytes() int {
	if v.bank != nil {
		return 72 + 8*len(v.bank)
	}
	n := 48 + v.main.SizeBytes()
	for _, r := range v.reps {
		n += r.SizeBytes()
	}
	return n
}

// Snapshots

// VectorSnap is a compact point-in-time copy of a Vector's state for the
// §5.1 snapshot/replay protocol. On the bank path it holds only the
// contiguous SoA slab — no Vector header, no per-accumulator boxes — and
// both SnapshotInto (slab reuse) and RestoreInto are allocation-free, which
// the AllocsPerRun regression test pins.
type VectorSnap struct {
	fn     *Func
	trials int
	bank   []float64
	main   Accumulator
	reps   []Accumulator
}

// SnapshotInto captures state into s, reusing its slab (bank path) or
// replicate slice when the shape matches; s may be nil. Returns the snap.
func (v *Vector) SnapshotInto(s *VectorSnap) *VectorSnap {
	if s == nil {
		s = &VectorSnap{}
	}
	s.fn, s.trials = v.Fn, v.trials
	if v.bank != nil {
		if len(s.bank) != len(v.bank) {
			s.bank = make([]float64, len(v.bank))
		}
		copy(s.bank, v.bank)
		s.main, s.reps = nil, nil
		return s
	}
	s.bank = nil
	s.main = v.main.Clone()
	if len(s.reps) != len(v.reps) {
		s.reps = make([]Accumulator, len(v.reps))
	}
	for i, r := range v.reps {
		s.reps[i] = r.Clone()
	}
	return s
}

// SnapFloats returns how many floats a snapshot of v copies into its slab: the
// bank's length, 0 on the interface path.
func (v *Vector) SnapFloats() int { return len(v.bank) }

// SnapshotCarve captures v into s like SnapshotInto, carving the bank copy
// off the front of slab, and returns the rest of slab: many snapshots share
// one allocation sized by the sum of their SnapFloats.
func (v *Vector) SnapshotCarve(s *VectorSnap, slab []float64) []float64 {
	n := len(v.bank)
	s.bank = slab[:n:n]
	v.SnapshotInto(s)
	return slab[n:]
}

// RestoreInto copies the snapshot's state into v in place — a single slab
// copy on the bank path. Returns false when v's function, trial count, or
// representation doesn't match (caller should Materialize instead). The
// snapshot stays valid: the same snap can restore any number of times.
func (s *VectorSnap) RestoreInto(v *Vector) bool {
	if v.Fn != s.fn || v.trials != s.trials {
		return false
	}
	if s.bank != nil {
		if len(v.bank) != len(s.bank) {
			return false
		}
		copy(v.bank, s.bank)
		return true
	}
	if v.bank != nil || v.main == nil {
		return false
	}
	v.main = s.main.Clone()
	for i := range v.reps {
		v.reps[i] = s.reps[i].Clone()
	}
	return true
}

// Materialize builds a fresh Vector carrying the snapshot's state.
func (s *VectorSnap) Materialize() *Vector {
	v := &Vector{Fn: s.fn, trials: s.trials}
	if s.bank != nil {
		v.bank = make([]float64, len(s.bank))
		copy(v.bank, s.bank)
		return v
	}
	v.main = s.main.Clone()
	v.reps = make([]Accumulator, len(s.reps))
	for i, r := range s.reps {
		v.reps[i] = r.Clone()
	}
	return v
}
