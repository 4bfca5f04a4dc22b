package core

import (
	"fmt"
	"math"

	"iolap/internal/bootstrap"
)

// rangeSupport is how many certain input rows a group must fold before its
// variation ranges bind (DESIGN.md §6). Below it a range stays unbounded:
// dependent rows stay non-deterministic, and the degenerate bootstrap
// distributions of near-empty groups cannot fail an integrity check.
const rangeSupport = 20

// maxTrials bounds Options.Trials: a hundred times the paper's B = 100, far
// above any count in use; more would only multiply every group's replicates.
const maxTrials = 10_000

// maxWorkers bounds Options.Workers: the pool starts at most one goroutine
// per chunk, but its chunk counts multiply the worker count, and a count near
// the int range from a remote client must not reach them.
const maxWorkers = 1 << 16

// estimator is the one home of what a published estimate is and when its
// range binds (Section 5.1, Appendix C). compile builds one per plan; every
// operator of the plan, a shared entry's included, reads it.
type estimator struct {
	slack   float64
	support int // rangeSupport, or a test's (Engine.setRangeSupport)
	// track: the plan tracks variation ranges. They exist to prune
	// classification decisions, so only nested plans with a bootstrap
	// outside HDA track them. Ranges that can fail an integrity check are
	// also what makes the engine keep recovery snapshots.
	track bool
}

// newEstimator builds a plan's estimator from defaulted options, rejecting
// the values no estimate can be built with: they may come from a remote
// client (internal/serve), and an absurd trial count would otherwise panic
// sizing the first replicate vector.
func newEstimator(opts Options, nested bool) (*estimator, error) {
	switch {
	case opts.Mode != ModeIOLAP && opts.Mode != ModeOPT1 && opts.Mode != ModeHDA:
		return nil, fmt.Errorf("core: unknown mode %v", opts.Mode)
	case opts.Trials > maxTrials:
		return nil, fmt.Errorf("core: %d bootstrap trials, more than %d", opts.Trials, maxTrials)
	case math.IsNaN(opts.Slack) || math.IsInf(opts.Slack, 0) || opts.Slack < 0:
		return nil, fmt.Errorf("core: variation-range slack %v, want a finite non-negative number", opts.Slack)
	}
	track := nested && opts.Mode != ModeHDA && opts.Trials > 0
	return &estimator{slack: opts.Slack, support: rangeSupport, track: track}, nil
}

// scale returns m^exp, the multiplicity at scale factor m of a result whose
// streamed scans sum to exponent exp (plan.ScaleExp).
func (e *estimator) scale(m float64, exp int) float64 {
	s := 1.0
	for k := 0; k < exp; k++ {
		s *= m
	}
	return s
}

// binding reports whether the ranges of a group of support certain rows bind.
func (e *estimator) binding(support int) bool { return support >= e.support }

// ranged reports whether sp's output gets a variation range. Only a smooth
// aggregate's does: MIN/MAX and COUNT(DISTINCT) drift monotonically under
// insertions, so their ranges would fail almost every integrity check.
func (e *estimator) ranged(sp *aggSpecC) bool { return e.track && sp.uncertainOut && sp.fn.Smooth }

func (e *estimator) newRange() *bootstrap.Range { return bootstrap.NewRange(e.slack) }

// observe records the estimate (val, reps) in aggregate op's range r, reports
// a failed integrity check, and returns the range to publish.
func (e *estimator) observe(bc *batchContext, op int, r *bootstrap.Range, val float64, reps []float64) bootstrap.Interval {
	bc.observed++
	if ok, recoverTo := r.Observe(bc.batch, val, reps); !ok {
		bc.failures = append(bc.failures, failure{op: op, recoverTo: recoverTo})
	}
	return r.Current()
}

// summarize is the sink's estimate of an uncertain cell from its replicates.
func (e *estimator) summarize(val float64, reps, scratch []float64) (bootstrap.Estimate, []float64) {
	return bootstrap.SummarizeInto(val, reps, scratch)
}
