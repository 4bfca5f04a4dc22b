package cluster

import "time"

// OpClass labels a parallel site by operator work class so the cost model
// can learn a distinct per-row cost for each: a bootstrap fold row
// (O(trials) accumulator adds) costs orders of magnitude more than a scan
// weight derivation, so a single global row-count threshold is wrong in
// both directions — it keeps small expensive batches sequential and fans
// out large cheap ones.
type OpClass int

// Operator work classes.
const (
	// CostScan is streamed-scan weight derivation.
	CostScan OpClass = iota
	// CostSelect is predicate evaluation / ND-set reclassification.
	CostSelect
	// CostProject is projection expression evaluation.
	CostProject
	// CostJoinBuild is hash-store build (key encode + shard append).
	CostJoinBuild
	// CostJoinProbe is hash-join probe + emit.
	CostJoinProbe
	// CostFold is bootstrap accumulator folding (sketch and scratch).
	CostFold
	// CostSink is sink materialisation (estimate summarisation).
	CostSink
	numOpClasses
)

var opClassNames = [numOpClasses]string{
	"scan", "select", "project", "join-build", "join-probe", "fold", "sink",
}

func (c OpClass) String() string {
	if c >= 0 && int(c) < len(opClassNames) {
		return opClassNames[c]
	}
	return "op?"
}

// parallelWorkNs is the amount of single-threaded work below which fanning
// out is not worth the dispatch cost (goroutine spawn + chunk claims for a
// pool's worth of workers, ~5–20µs on commodity hardware, with margin).
const parallelWorkNs = 100_000

// Threshold clamps: never fan out fewer rows than minCutover (dispatch
// dominates no matter how expensive the rows), never demand more than
// maxCutover (even free-looking rows amortise eventually; also guards a
// corrupted EWMA).
const (
	minCutover = 32
	maxCutover = 1 << 20
)

// coldStartNs seeds the per-class EWMA so the cutover is sane before the
// first observation: the values reproduce the PR-1 fixed thresholds
// (~512 rows in core, ~2048 in exec) for the cheap classes and open the
// parallel path earlier for fold-heavy work.
var coldStartNs = [numOpClasses]float64{
	CostScan:      50,  // ~2000-row cutover
	CostSelect:    200, // ~500-row cutover
	CostProject:   100,
	CostJoinBuild: 150,
	CostJoinProbe: 200,
	CostFold:      800, // O(trials) adds per row: fan out early
	CostSink:      800,
}

// CostModel picks the sequential/parallel cutover per operator class from an
// exponentially weighted moving average of measured per-row cost. It is
// engine/executor state, not a package global: every Engine and Executor
// owns one, so tests and concurrent engines cannot race on it, and each
// engine's model adapts to its own query's row widths and trial counts.
//
// The model only ever influences *whether* a site fans out; every gated
// parallel path is bit-identical to its sequential fallback, so adapting the
// cutover from wall-clock measurements cannot perturb results, estimates, or
// metrics (the DESIGN.md §7 invariant).
//
// Methods are not safe for concurrent use; callers observe from the
// coordinating goroutine only (operators run one batch at a time).
type CostModel struct {
	perRowNs [numOpClasses]float64
	fixed    int
}

// ewmaAlpha is the smoothing factor: new observations move the estimate a
// fifth of the way, so one garbage-collected outlier batch cannot flip the
// cutover by itself.
const ewmaAlpha = 0.2

// NewCostModel returns a model seeded with the cold-start priors. fixed > 0
// pins every class's cutover to that row count (the test/benchmark hook that
// replaces the old mutable package-level parThreshold); fixed <= 0 enables
// the adaptive EWMA.
func NewCostModel(fixed int) *CostModel {
	m := &CostModel{fixed: fixed}
	m.perRowNs = coldStartNs
	return m
}

// Threshold returns the row-count cutover for the class: at or above it a
// site should fan out. Nil-safe (returns a conservative default).
func (m *CostModel) Threshold(c OpClass) int {
	if m == nil {
		return 2048
	}
	if m.fixed > 0 {
		return m.fixed
	}
	ns := m.perRowNs[c]
	if ns <= 0 {
		return 2048
	}
	t := int(parallelWorkNs / ns)
	if t < minCutover {
		t = minCutover
	}
	if t > maxCutover {
		t = maxCutover
	}
	return t
}

// Observe folds a measured run into the class EWMA. workers is the
// parallelism the run used (1 for sequential): the wall clock of a parallel
// run is scaled back up to approximate single-threaded work, which
// overestimates under imperfect balance — a safe bias, since it lowers the
// cutover and skew is exactly when fanning out pays. Zero-row or
// zero-duration runs (clock granularity) are discarded.
func (m *CostModel) Observe(c OpClass, rows int, d time.Duration, workers int) {
	if m == nil || m.fixed > 0 || rows <= 0 || d <= 0 {
		return
	}
	if workers < 1 {
		workers = 1
	}
	perRow := float64(d.Nanoseconds()) * float64(workers) / float64(rows)
	m.perRowNs[c] += ewmaAlpha * (perRow - m.perRowNs[c])
}

// Snapshot exports the per-class EWMA estimates keyed by class name (not
// ordinal, so readers survive class reorderings).
func (m *CostModel) Snapshot() map[string]float64 {
	if m == nil {
		return nil
	}
	out := make(map[string]float64, int(numOpClasses))
	for c := OpClass(0); c < numOpClasses; c++ {
		out[c.String()] = m.perRowNs[c]
	}
	return out
}
