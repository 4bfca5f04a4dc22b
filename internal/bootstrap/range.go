package bootstrap

import (
	"fmt"
	"math"
)

// Interval is a closed real interval. It is the representation of a
// variation range R(u) (Section 5.1) and the carrier of interval arithmetic
// used to classify predicate decisions as deterministic or not.
type Interval struct {
	Lo, Hi float64
}

// Point returns the degenerate interval {x} — the variation range of a
// deterministic value.
func Point(x float64) Interval { return Interval{Lo: x, Hi: x} }

// Full returns the interval covering all reals; used when nothing is known.
func Full() Interval { return Interval{Lo: math.Inf(-1), Hi: math.Inf(1)} }

// IsPoint reports whether the interval is a single value.
func (iv Interval) IsPoint() bool { return iv.Lo == iv.Hi }

// Contains reports whether x lies within the interval.
func (iv Interval) Contains(x float64) bool { return iv.Lo <= x && x <= iv.Hi }

// ContainsInterval reports whether o is a subset of iv.
func (iv Interval) ContainsInterval(o Interval) bool {
	return iv.Lo <= o.Lo && o.Hi <= iv.Hi
}

// Intersects reports whether the two intervals overlap. Per Section 5.1 a
// predicate x θ y is non-deterministic iff R(x) ∩ R(y) ≠ ∅ (for equality-like
// θ; ordering comparisons additionally resolve when disjoint).
func (iv Interval) Intersects(o Interval) bool {
	return iv.Lo <= o.Hi && o.Lo <= iv.Hi
}

// Intersect returns the intersection; empty intersections collapse to the
// boundary point to keep downstream arithmetic finite.
func (iv Interval) Intersect(o Interval) Interval {
	lo := math.Max(iv.Lo, o.Lo)
	hi := math.Min(iv.Hi, o.Hi)
	if lo > hi {
		return Interval{Lo: lo, Hi: lo}
	}
	return Interval{Lo: lo, Hi: hi}
}

// Add returns the interval sum.
func (iv Interval) Add(o Interval) Interval {
	return Interval{Lo: iv.Lo + o.Lo, Hi: iv.Hi + o.Hi}
}

// Sub returns the interval difference.
func (iv Interval) Sub(o Interval) Interval {
	return Interval{Lo: iv.Lo - o.Hi, Hi: iv.Hi - o.Lo}
}

// Mul returns the interval product.
func (iv Interval) Mul(o Interval) Interval {
	a, b := iv.Lo*o.Lo, iv.Lo*o.Hi
	c, d := iv.Hi*o.Lo, iv.Hi*o.Hi
	return Interval{
		Lo: math.Min(math.Min(a, b), math.Min(c, d)),
		Hi: math.Max(math.Max(a, b), math.Max(c, d)),
	}
}

// Div returns the interval quotient; denominators straddling zero widen to
// the full line (conservative, keeps classification sound).
func (iv Interval) Div(o Interval) Interval {
	if o.Contains(0) {
		return Full()
	}
	inv := Interval{Lo: 1 / o.Hi, Hi: 1 / o.Lo}
	return iv.Mul(inv)
}

// Neg returns the negated interval.
func (iv Interval) Neg() Interval { return Interval{Lo: -iv.Hi, Hi: -iv.Lo} }

func (iv Interval) String() string {
	return fmt.Sprintf("[%.6g, %.6g]", iv.Lo, iv.Hi)
}

// Range tracks the variation range R(u) of one uncertain value across
// batches (Section 5.1):
//
//   - R(u) is approximated per batch as
//     [min(û) − ε·stdev(û), max(û) + ε·stdev(û)] intersected with the
//     previous range, where û are the bootstrap outputs and ε the slack;
//   - a history of per-batch ranges supports the integrity check: at batch
//     i+1 the new replicate envelope must lie inside R(u_i), otherwise a
//     failure is reported together with the last batch j whose recorded
//     range still contains the new envelope (recovery replays from j+1).
type Range struct {
	slack   float64
	history []Interval // history[k] = R(u) as of the (k+1)-th observation
	labels  []int      // labels[k] = caller-provided batch number of observation k
}

// NewRange creates a tracker with the given slack parameter ε.
func NewRange(slack float64) *Range {
	return &Range{slack: slack}
}

// Current returns the latest range; Full() before any observation.
func (r *Range) Current() Interval {
	if len(r.history) == 0 {
		return Full()
	}
	return r.history[len(r.history)-1]
}

// envelope builds [min−ε·σ, max+ε·σ] over the running value and replicates.
func (r *Range) envelope(value float64, reps []float64) Interval {
	lo, hi := value, value
	if len(reps) > 0 {
		rlo, rhi := MinMax(reps)
		lo = math.Min(lo, rlo)
		hi = math.Max(hi, rhi)
		sd := Stdev(reps)
		lo -= r.slack * sd
		hi += r.slack * sd
	}
	return Interval{Lo: lo, Hi: hi}
}

// Observe records the batch-labelled estimate of the uncertain value. It
// returns ok=false when the integrity check fails, i.e. the new replicate
// envelope escapes the current range; recoverTo is then the label of the
// last observation j whose recorded range still contains the new envelope,
// or -1 when none does (recover from scratch). On failure the history is
// truncated to observation j and re-seeded with the new envelope so
// processing can resume after the controller replays from batch j+1.
func (r *Range) Observe(batch int, value float64, reps []float64) (ok bool, recoverTo int) {
	env := r.envelope(value, reps)
	if len(r.history) == 0 {
		r.history = append(r.history, env)
		r.labels = append(r.labels, batch)
		return true, batch
	}
	cur := r.Current()
	// Integrity: [min(û), max(û)] (without slack) must stay inside R(u_i).
	tight := Interval{Lo: value, Hi: value}
	if len(reps) > 0 {
		lo, hi := MinMax(reps)
		tight.Lo = math.Min(tight.Lo, lo)
		tight.Hi = math.Max(tight.Hi, hi)
	}
	if cur.ContainsInterval(tight) {
		r.history = append(r.history, env.Intersect(cur))
		r.labels = append(r.labels, batch)
		return true, batch
	}
	// Failure: find the last observation whose range still contains the
	// new envelope.
	j := -1
	for k := len(r.history) - 1; k >= 0; k-- {
		if r.history[k].ContainsInterval(env) {
			j = k
			break
		}
	}
	if j >= 0 {
		label := r.labels[j]
		r.history = append(r.history[:j+1], env.Intersect(r.history[j]))
		r.labels = append(r.labels[:j+1], batch)
		return false, label
	}
	r.history = append(r.history[:0], env)
	r.labels = append(r.labels[:0], batch)
	return false, -1
}

// Snapshot returns a deep copy used by the controller's per-batch state
// snapshots (failure recovery replays restore these).
func (r *Range) Snapshot() *Range {
	h := make([]Interval, len(r.history))
	copy(h, r.history)
	l := make([]int, len(r.labels))
	copy(l, r.labels)
	return &Range{slack: r.slack, history: h, labels: l}
}
