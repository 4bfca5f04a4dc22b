package delta

import (
	"iolap/internal/expr"
	"iolap/internal/rel"
)

// The classical delta update rules of Figure 1, stated over materialised
// relations:
//
//	Δ(σθ R)      = σθ(ΔR)
//	Δ(πA R)      = πA(ΔR)
//	Δ(R1 ⋈ R2)   = (ΔR1 ⋈ R2) ∪ (R1 ⋈ ΔR2) ∪ (ΔR1 ⋈ ΔR2)
//	Δ(R1 ∪ R2)   = ΔR1 ∪ ΔR2
//	Δ(γ_{A,sum}R) = γ_{A,sum}(ΔR)    (merged into the running aggregate)
//
// These functions exist for two reasons: they are the delta engine the OLA /
// IVM baselines reduce to on flat SPJA queries, and the package tests verify
// that applying them incrementally matches batch recomputation — the
// subsumption claim at the end of Section 4.2.

// DeltaSelect applies Δ(σθR) = σθ(ΔR).
func DeltaSelect(pred expr.Expr, delta []Row, res expr.Resolver) []Row {
	var out []Row
	for _, r := range delta {
		if expr.Holds(pred, r.Vals, res) {
			out = append(out, r)
		}
	}
	return out
}

// DeltaProject applies Δ(πA R) = πA(ΔR).
func DeltaProject(exprs []expr.Expr, delta []Row, res expr.Resolver) []Row {
	out := make([]Row, 0, len(delta))
	for _, r := range delta {
		vals := make([]rel.Value, len(exprs))
		for i, e := range exprs {
			vals[i] = e.Eval(r.Vals, res)
		}
		out = append(out, Row{Vals: vals, Mult: r.Mult, W: r.W, Tuple: r.Tuple})
	}
	return out
}

// DeltaJoin applies Δ(R1 ⋈ R2) = (ΔR1 ⋈ R2) ∪ (R1 ⋈ ΔR2) ∪ (ΔR1 ⋈ ΔR2),
// where r1Store/r2Store hold the relations as of the previous batch. The
// deltas must be added to the stores by the caller afterwards.
func DeltaJoin(r1Store, r2Store *HashStore, d1, d2 []Row, k1, k2 []int) []Row {
	var out []Row
	// ΔR1 ⋈ R2(old)
	for _, l := range d1 {
		for _, r := range r2Store.Probe(l.Vals, k1) {
			out = append(out, JoinRows(l, r))
		}
	}
	// R1(old) ⋈ ΔR2
	for _, r := range d2 {
		for _, l := range r1Store.Probe(r.Vals, k2) {
			out = append(out, JoinRows(l, r))
		}
	}
	// ΔR1 ⋈ ΔR2
	d2ByKey := make(map[string][]Row)
	for _, r := range d2 {
		d2ByKey[rel.EncodeKey(r.Vals, k2)] = append(d2ByKey[rel.EncodeKey(r.Vals, k2)], r)
	}
	for _, l := range d1 {
		for _, r := range d2ByKey[rel.EncodeKey(l.Vals, k1)] {
			out = append(out, JoinRows(l, r))
		}
	}
	return out
}

// DeltaUnion applies Δ(R1 ∪ R2) = ΔR1 ∪ ΔR2.
func DeltaUnion(d1, d2 []Row) []Row {
	out := make([]Row, 0, len(d1)+len(d2))
	out = append(out, d1...)
	out = append(out, d2...)
	return out
}
