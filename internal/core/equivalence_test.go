package core

import (
	"testing"
)

// The partition-parallel delta pipeline promises bit-identical results at any
// worker count: every parallel site is a deterministic shard of the work whose
// outputs merge in a fixed order, so Workers only changes wall clock. This
// suite enforces the promise by running each query shape with Workers=1 and
// Workers=8 and comparing every Update exactly — the result relation in physical
// order and every bootstrap estimate field by ResultDigest, and every
// accounting metric. The parallel cutover is pinned to 1 so the small
// fixtures exercise the parallel paths that production only enters on large
// batches. TestExecutionLattice holds the golden cases to the same promise.

func TestWorkerEquivalenceDeltaPipeline(t *testing.T) {
	base := Options{Mode: ModeIOLAP, Batches: 6, Trials: 25, Seed: 3}
	mode := func(m Mode) Options { o := base; o.Mode = m; return o }
	// Adversarial arrival order + tight slack: recovery (snapshot restore +
	// merged-delta replay) must also be worker-invariant.
	recovery := Options{Mode: ModeIOLAP, Batches: 10, Trials: 20, Slack: 0, Seed: 4}
	cases := []goldenCase{
		{name: "flat_group_by/iolap", query: theoremQuery(t, "flat_group_by"), opts: base},
		{name: "join_dim_group/iolap", query: theoremQuery(t, "join_dim_group"), opts: base},
		{name: "union_all/iolap", query: theoremQuery(t, "union_all"), opts: base},
		{name: "case_expression/iolap", query: theoremQuery(t, "case_expression"), opts: base},
		{name: "nested_correlated/iolap", query: theoremQuery(t, "nested_correlated"), opts: base},
		{name: "sbi/iolap", query: sbiQuery, opts: base},
		{name: "sbi/opt1", query: sbiQuery, opts: mode(ModeOPT1)},
		{name: "sbi/hda", query: sbiQuery, opts: mode(ModeHDA)},
		{name: "sbi/recovery", query: sbiQuery, opts: recovery, n: 200, dbSeed: 7, sorted: true, wantRecovery: true},
		// One group holds ~90% of the rows: the heavy-group replicate-split
		// and size-hinted light-group scheduling must stay bit-identical to
		// the sequential fold under extreme skew.
		{name: "skewed_group/iolap", query: theoremQuery(t, "flat_group_by"), opts: base, skewed: true},
		{name: "skewed_group/join", query: theoremQuery(t, "join_dim_group"), opts: base, skewed: true},
		// Skew + adversarial order + zero slack: the failure-recovery path
		// (snapshot restore, merged-delta replay) over a skewed fold.
		{name: "skewed_group/recovery", query: sbiQuery, opts: recovery, n: 200, dbSeed: 7,
			sorted: true, skewed: true, wantRecovery: true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			assertConfigsAgree(t, c.lattice(t), execConfig{workers: 1}, execConfig{workers: 8})
		})
	}
}

// TestWorkerEquivalenceIntermediateWorkers sweeps the skewed fixture across
// worker counts: the deterministic-scheduling promise is per-count, not just
// at the 1-vs-8 extremes (a chunk-boundary bug could hide at w=2).
func TestWorkerEquivalenceIntermediateWorkers(t *testing.T) {
	c := goldenCase{query: theoremQuery(t, "flat_group_by"), skewed: true,
		opts: Options{Mode: ModeIOLAP, Batches: 6, Trials: 25, Seed: 3}}.lattice(t)
	ref := runAt(t, c, execConfig{workers: 1})
	for _, w := range []int{2, 8} {
		t.Run(itoa(w)+"_workers", func(t *testing.T) {
			compareUpdates(t, itoa(w)+" workers", ref.us, runAt(t, c, execConfig{workers: w}).us)
		})
	}
}

// TestWorkerEquivalenceAboveThreshold repeats one shape with the adaptive
// cutover (no Engine.SetCutover) and batches large enough to cross it, so the
// gate itself — EWMA-derived thresholds deciding mid-run which sites fan
// out — is covered too. The adaptive gate's timing-dependent choices must be
// invisible in the output because every gated path is bit-identical.
func TestWorkerEquivalenceAboveThreshold(t *testing.T) {
	if testing.Short() {
		t.Skip("large fixture")
	}
	// 4 batches × ~1600 rows each ≫ every cold-start cutover.
	c := goldenCase{query: theoremQuery(t, "join_dim_group"), n: 6400, dbSeed: 21, adaptive: true,
		opts: Options{Mode: ModeIOLAP, Batches: 4, Trials: 10, Seed: 5}}.lattice(t)
	assertConfigsAgree(t, c, execConfig{workers: 1}, execConfig{workers: 8})
}
