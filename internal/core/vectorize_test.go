package core

import (
	"fmt"
	"testing"
)

// The columnar batch pipeline (DESIGN.md §14) promises bit-identical
// updates to the row-at-a-time paths: the vectorized select fills its
// selection vector with exactly the row path's acceptance verdicts, and the
// aggregate fold reads the same group keys and argument values from the
// column banks as from the rows. This suite enforces the promise by running
// each query shape with Options.NoVectorize on and off — at Workers 1 and 4,
// so both schedules of every operator face both input forms — and comparing
// every Update field exactly (relations, bootstrap estimates, accounting
// metrics).
func TestVectorizeEquivalence(t *testing.T) {
	base := Options{Mode: ModeIOLAP, Batches: 6, Trials: 25, Seed: 3}
	hda := base
	hda.Mode = ModeHDA
	cases := []goldenCase{
		{name: "flat_group_by", query: theoremQuery(t, "flat_group_by"), opts: base},
		// Deterministic WHERE over the streamed scan: the vectorized filter
		// feeds the batched fold through a narrowed selection vector.
		{name: "flat_filter_agg", query: theoremQuery(t, "flat_filter_agg"), opts: base},
		// Streamed fact ⋈ static dimension: the probe reads rows, so the
		// columnar batch ends at the join.
		{name: "join_dim_group", query: theoremQuery(t, "join_dim_group"), opts: base},
		{name: "union_all", query: theoremQuery(t, "union_all"), opts: base},
		{name: "case_expression", query: theoremQuery(t, "case_expression"), opts: base},
		{name: "nested_correlated", query: theoremQuery(t, "nested_correlated"), opts: base},
		{name: "sbi/iolap", query: sbiQuery, opts: base},
		{name: "sbi/hda", query: sbiQuery, opts: hda},
		// ~90% of rows in one group: the heavy group's replicate-split,
		// fed from column banks and from rows.
		{name: "skewed_group", query: theoremQuery(t, "flat_group_by"), opts: base, skewed: true},
		// Adversarial arrival order + zero slack: snapshot restore and
		// merged-delta replay run through the batched fold too.
		{name: "recovery", query: sbiQuery, sorted: true,
			opts: Options{Mode: ModeIOLAP, Batches: 10, Trials: 20, Slack: 0, Seed: 4}},
	}
	for _, c := range cases {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/w%d", c.name, workers), func(t *testing.T) {
				assertConfigsAgree(t, c.lattice(t),
					execConfig{workers: workers, novec: true}, execConfig{workers: workers})
			})
		}
	}
}
