package cluster

import "time"

// Runner runs the row-parallel sites of one engine or executor: a worker
// pool and the cost model that decides when a site is worth the pool. It is
// the one statement of the scheduling policy —
//
//   - the gate: a site of n rows fans out iff the pool has more than one
//     worker and n reaches the class cutover (CostModel.Threshold);
//   - the clock: every gated run is timed and its per-row cost fed back into
//     the class EWMA, scaled by the workers it used;
//   - the cut: a fanned-out range splits into Pool.Chunks contiguous chunks
//     at i·n/c, a pure function of (n, workers), and per-chunk results are
//     collected in chunk order —
//
// so a site says what its rows do and nothing about how they are scheduled.
// Every gated path is bit-identical to running the same function over the
// whole range inline; the policy moves wall clock, never results.
//
// The zero Runner runs everything inline and learns nothing. A Runner is
// used from the coordinating goroutine only (operators run one batch at a
// time).
type Runner struct {
	pool *Pool
	cost *CostModel
}

// NewRunner returns a runner over a fresh pool of the given parallelism
// (<= 0 selects GOMAXPROCS) and a fresh cost model; cutover > 0 pins every
// class's cutover to that row count (see NewCostModel).
func NewRunner(workers, cutover int) Runner {
	return Runner{pool: NewPool(workers), cost: NewCostModel(cutover)}
}

// CostSnapshot exports the model's per-class estimates (CostModel.Snapshot).
func (r Runner) CostSnapshot() map[string]float64 { return r.cost.Snapshot() }

// Gate returns the pool when a site of the class over n rows should fan out
// and nil when it should run inline — the form callees with an optional pool
// take (Pool.Span, CollectSpan, delta.HashStore.AddBatch). It does not clock:
// a caller that only gates leaves the class estimate where it was.
func (r Runner) Gate(class OpClass, n int) *Pool {
	if r.pool != nil && r.pool.workers > 1 && n >= r.cost.Threshold(class) {
		return r.pool
	}
	return nil
}

// Run gates a site, runs body with the gate's answer, and feeds the measured
// cost of the n rows into the class estimate. It is the entry point for
// sites whose parallel form is more than a chunked loop (a fold that
// schedules groups, a sharded build); Chunks and Collect are Run over the
// two chunked forms.
func (r Runner) Run(class OpClass, n int, body func(p *Pool)) {
	p := r.Gate(class, n)
	t0 := time.Now()
	body(p)
	r.cost.Observe(class, n, time.Since(t0), p.Workers())
}

// Chunks runs a slot-filling site: fill(lo, hi) writes the results of rows
// [lo, hi) into slots the caller owns, so any cut of [0, n) fills the same
// slots with the same values.
func (r Runner) Chunks(class OpClass, n int, fill func(lo, hi int)) {
	r.Run(class, n, func(p *Pool) { p.Span(n, fill) })
}

// Collect runs an order-preserving site: span(lo, hi) returns the results of
// rows [lo, hi) in row order, and the per-chunk results are concatenated in
// chunk order — the output of span(0, n).
func Collect[T any](r Runner, class OpClass, n int, span func(lo, hi int) []T) []T {
	var out []T
	r.Run(class, n, func(p *Pool) { out = CollectSpan(p, n, span) })
	return out
}

// Span runs fill over [0, n), cut into the pool's chunks of the range; a nil
// pool runs fill(0, n) inline. Unlike Runner.Chunks it neither gates nor
// clocks: it is the cut alone, for a range whose gate was already taken.
func (p *Pool) Span(n int, fill func(lo, hi int)) {
	switch {
	case n <= 0:
	case p == nil:
		fill(0, n)
	default:
		c := p.Chunks(n)
		claim(p.workers, c, func(i int) { fill(i*n/c, (i+1)*n/c) })
	}
}

// CollectSpan is the order-preserving counterpart of Span: span runs per
// chunk of [0, n) and the results are concatenated in chunk order; a nil
// pool returns span(0, n).
func CollectSpan[T any](p *Pool, n int, span func(lo, hi int) []T) []T {
	if n <= 0 {
		return nil
	}
	if p == nil {
		return span(0, n)
	}
	c := p.Chunks(n)
	outs := make([][]T, c)
	claim(p.workers, c, func(i int) { outs[i] = span(i*n/c, (i+1)*n/c) })
	var out []T
	for _, o := range outs {
		out = append(out, o...)
	}
	return out
}
