package serve

import (
	"math"
	"slices"

	"iolap/internal/core"
)

// BitIdentical reports whether two estimate trajectories are the same run:
// same length, and every update equal batch for batch — labels, Fraction by
// math.Float64bits, columns, and the (result, estimates) pair by
// core.ResultDigest, the repo's equivalence contract. The serve tests and
// the serve harness experiment use it to prove that sharing a scan with
// N-1 other sessions never perturbs a session's results.
func BitIdentical(a, b []*Update) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !updateBitIdentical(a[i], b[i]) {
			return false
		}
	}
	return true
}

func updateBitIdentical(a, b *Update) bool {
	if a.Batch != b.Batch || a.Batches != b.Batches ||
		math.Float64bits(a.Fraction) != math.Float64bits(b.Fraction) ||
		!slices.Equal(a.Columns, b.Columns) {
		return false
	}
	da, errA := core.ResultDigest(a.Result, a.Estimates)
	db, errB := core.ResultDigest(b.Result, b.Estimates)
	return errA == nil && errB == nil && da == db
}
