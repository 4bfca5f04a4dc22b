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
	cases := []struct {
		name   string
		query  string
		opts   Options
		sorted bool
		skewed bool
	}{
		{"flat_group_by", theoremQuery(t, "flat_group_by"),
			Options{Mode: ModeIOLAP, Batches: 6, Trials: 25, Seed: 3}, false, false},
		// Deterministic WHERE over the streamed scan: the vectorized filter
		// feeds the batched fold through a narrowed selection vector.
		{"flat_filter_agg", theoremQuery(t, "flat_filter_agg"),
			Options{Mode: ModeIOLAP, Batches: 6, Trials: 25, Seed: 3}, false, false},
		// Streamed fact ⋈ static dimension: the probe reads rows, so the
		// columnar batch ends at the join.
		{"join_dim_group", theoremQuery(t, "join_dim_group"),
			Options{Mode: ModeIOLAP, Batches: 6, Trials: 25, Seed: 3}, false, false},
		{"union_all", theoremQuery(t, "union_all"),
			Options{Mode: ModeIOLAP, Batches: 6, Trials: 25, Seed: 3}, false, false},
		{"case_expression", theoremQuery(t, "case_expression"),
			Options{Mode: ModeIOLAP, Batches: 6, Trials: 25, Seed: 3}, false, false},
		{"nested_correlated", theoremQuery(t, "nested_correlated"),
			Options{Mode: ModeIOLAP, Batches: 6, Trials: 25, Seed: 3}, false, false},
		{"sbi/iolap", sbiQuery,
			Options{Mode: ModeIOLAP, Batches: 6, Trials: 25, Seed: 3}, false, false},
		{"sbi/hda", sbiQuery,
			Options{Mode: ModeHDA, Batches: 6, Trials: 25, Seed: 3}, false, false},
		// ~90% of rows in one group: the heavy group's replicate-split,
		// fed from column banks and from rows.
		{"skewed_group", theoremQuery(t, "flat_group_by"),
			Options{Mode: ModeIOLAP, Batches: 6, Trials: 25, Seed: 3}, false, true},
		// Adversarial arrival order + zero slack: snapshot restore and
		// merged-delta replay run through the batched fold too.
		{"recovery", sbiQuery,
			Options{Mode: ModeIOLAP, Batches: 10, Trials: 20, Slack: 0, Seed: 4}, true, false},
	}
	for _, c := range cases {
		for _, workers := range []int{1, 4} {
			c, workers := c, workers
			t.Run(fmt.Sprintf("%s/w%d", c.name, workers), func(t *testing.T) {
				vecOpts, rowOpts := c.opts, c.opts
				vecOpts.Workers, vecOpts.ParThreshold = workers, 1
				rowOpts.Workers, rowOpts.ParThreshold = workers, 1
				rowOpts.NoVectorize = true
				row, rowEng := runEngineUpdates(t, c.query, 240, 11, rowOpts, c.sorted, c.skewed)
				vec, vecEng := runEngineUpdates(t, c.query, 240, 11, vecOpts, c.sorted, c.skewed)
				assertUpdatesIdentical(t, row, vec)
				if rowEng.TotalRecoveries() != vecEng.TotalRecoveries() {
					t.Errorf("TotalRecoveries: row %d vs vectorized %d",
						rowEng.TotalRecoveries(), vecEng.TotalRecoveries())
				}
			})
		}
	}
}
