package core

import (
	"math"
	"sort"
	"strings"
	"testing"

	"iolap/internal/exec"
	"iolap/internal/rel"
)

// The partition-parallel delta pipeline promises bit-identical results at any
// worker count: every parallel site is a deterministic shard of the work whose
// outputs merge in a fixed order, so Workers only changes wall clock. This
// suite enforces the promise by running each query shape with Workers=1 and
// Workers=8 and comparing every Update exactly — the result relation in physical
// order and every bootstrap estimate field by ResultDigest, and every
// accounting metric. Options.ParThreshold pins the cutover to 1 so the small
// fixtures exercise the parallel paths that production only enters on large
// batches.

// assertResultsIdentical compares only the user-visible answer — batch
// labels, fraction, and the (result, estimates) pair by ResultDigest —
// ignoring accounting metrics. It is the right comparison when one run
// recovered and the other did not: recovery legitimately changes
// Recomputed/ShuffleBytes/Recoveries, but the paper's replay protocol
// guarantees the answer itself is unchanged.
func assertResultsIdentical(t *testing.T, want, got []*Update) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("update counts differ: %d vs %d", len(want), len(got))
	}
	for i := range want {
		a, b := want[i], got[i]
		if a.Batch != b.Batch || a.Batches != b.Batches {
			t.Fatalf("update %d: batch labels differ: %d/%d vs %d/%d", i, a.Batch, a.Batches, b.Batch, b.Batches)
		}
		if math.Float64bits(a.Fraction) != math.Float64bits(b.Fraction) {
			t.Errorf("batch %d: Fraction %v vs %v", a.Batch, a.Fraction, b.Fraction)
		}
		da, err := ResultDigest(a.Result, a.Estimates)
		if err != nil {
			t.Fatalf("batch %d: digest: %v", a.Batch, err)
		}
		db, err := ResultDigest(b.Result, b.Estimates)
		if err != nil {
			t.Fatalf("batch %d: digest: %v", b.Batch, err)
		}
		if da != db {
			t.Fatalf("batch %d: result or estimates differ (digest %x vs %x)\nwant:\n%s\ngot:\n%s",
				a.Batch, da, db, a.Result, b.Result)
		}
	}
}

// assertUpdatesIdentical is assertResultsIdentical plus every accounting
// metric of the Update.
func assertUpdatesIdentical(t *testing.T, seq, par []*Update) {
	t.Helper()
	assertResultsIdentical(t, seq, par)
	for i := range seq {
		a, b := seq[i], par[i]
		if a.Recomputed != b.Recomputed {
			t.Errorf("batch %d: Recomputed %d vs %d", a.Batch, a.Recomputed, b.Recomputed)
		}
		if a.NDSetRows != b.NDSetRows {
			t.Errorf("batch %d: NDSetRows %d vs %d", a.Batch, a.NDSetRows, b.NDSetRows)
		}
		if a.JoinStateBytes != b.JoinStateBytes || a.OtherStateBytes != b.OtherStateBytes {
			t.Errorf("batch %d: state bytes (%d,%d) vs (%d,%d)", a.Batch,
				a.JoinStateBytes, a.OtherStateBytes, b.JoinStateBytes, b.OtherStateBytes)
		}
		if a.JoinStateResidentBytes != b.JoinStateResidentBytes {
			t.Errorf("batch %d: JoinStateResidentBytes %d vs %d", a.Batch,
				a.JoinStateResidentBytes, b.JoinStateResidentBytes)
		}
		if a.SpillBytesWritten != b.SpillBytesWritten || a.SpillBytesRead != b.SpillBytesRead {
			t.Errorf("batch %d: spill bytes (w %d, r %d) vs (w %d, r %d)", a.Batch,
				a.SpillBytesWritten, a.SpillBytesRead, b.SpillBytesWritten, b.SpillBytesRead)
		}
		if a.ShuffleBytes != b.ShuffleBytes {
			t.Errorf("batch %d: ShuffleBytes %d vs %d", a.Batch, a.ShuffleBytes, b.ShuffleBytes)
		}
		if a.BroadcastBytes != b.BroadcastBytes {
			t.Errorf("batch %d: BroadcastBytes %d vs %d", a.Batch, a.BroadcastBytes, b.BroadcastBytes)
		}
		if a.Recoveries != b.Recoveries || a.RecoveredFrom != b.RecoveredFrom {
			t.Errorf("batch %d: recovery (%d from %d) vs (%d from %d)", a.Batch,
				a.Recoveries, a.RecoveredFrom, b.Recoveries, b.RecoveredFrom)
		}
	}
}

// sortSessionsByBufferTime orders the streamed table ascending by buffer_time,
// the adversarial arrival order that drives the running AVG(buffer_time)
// monotonically upward and forces variation-range failures under a tight
// slack (the recipe of TestTheorem1UnderRecovery).
func sortSessionsByBufferTime(db *exec.DB) {
	src, _ := db.Get("sessions")
	sort.SliceStable(src.Tuples, func(i, j int) bool {
		return src.Tuples[i].Vals[1].Float() < src.Tuples[j].Vals[1].Float()
	})
}

// skewSessions rewrites the sessions table so one group dominates: ~90% of
// rows land on cdn "east". This is the fixture shape where hash-sharded group
// ownership degenerates to single-worker execution — the scheduling bug the
// heavy/light fold split fixes — and the equivalence suite must hold on it
// like on any other distribution.
func skewSessions(db *exec.DB) {
	src, _ := db.Get("sessions")
	for i := range src.Tuples {
		if i%10 != 0 {
			src.Tuples[i].Vals[3] = rel.String("east")
		}
	}
}

func runEngineUpdates(t *testing.T, query string, n int, dbSeed int64, opts Options, sorted, skewed bool) ([]*Update, *Engine) {
	t.Helper()
	db := testDB(n, dbSeed)
	if skewed {
		skewSessions(db)
	}
	if sorted {
		sortSessionsByBufferTime(db)
	}
	eng, err := NewEngine(planQuery(t, query), db, opts)
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	us, err := eng.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return us, eng
}

func theoremQuery(t *testing.T, name string) string {
	t.Helper()
	for _, q := range theoremQueries {
		if q.name == name {
			return q.query
		}
	}
	t.Fatalf("no theorem query named %q", name)
	return ""
}

func TestWorkerEquivalenceDeltaPipeline(t *testing.T) {
	cases := []struct {
		name   string
		query  string
		n      int
		dbSeed int64
		opts   Options
		sorted bool
		skewed bool
	}{
		{"flat_group_by/iolap", theoremQuery(t, "flat_group_by"), 240, 11,
			Options{Mode: ModeIOLAP, Batches: 6, Trials: 25, Seed: 3}, false, false},
		{"join_dim_group/iolap", theoremQuery(t, "join_dim_group"), 240, 11,
			Options{Mode: ModeIOLAP, Batches: 6, Trials: 25, Seed: 3}, false, false},
		{"union_all/iolap", theoremQuery(t, "union_all"), 240, 11,
			Options{Mode: ModeIOLAP, Batches: 6, Trials: 25, Seed: 3}, false, false},
		{"case_expression/iolap", theoremQuery(t, "case_expression"), 240, 11,
			Options{Mode: ModeIOLAP, Batches: 6, Trials: 25, Seed: 3}, false, false},
		{"nested_correlated/iolap", theoremQuery(t, "nested_correlated"), 240, 11,
			Options{Mode: ModeIOLAP, Batches: 6, Trials: 25, Seed: 3}, false, false},
		{"sbi/iolap", sbiQuery, 240, 11,
			Options{Mode: ModeIOLAP, Batches: 6, Trials: 25, Seed: 3}, false, false},
		{"sbi/opt1", sbiQuery, 240, 11,
			Options{Mode: ModeOPT1, Batches: 6, Trials: 25, Seed: 3}, false, false},
		{"sbi/hda", sbiQuery, 240, 11,
			Options{Mode: ModeHDA, Batches: 6, Trials: 25, Seed: 3}, false, false},
		// Adversarial arrival order + tight slack: recovery (snapshot
		// restore + merged-delta replay) must also be worker-invariant.
		{"sbi/recovery", sbiQuery, 200, 7,
			Options{Mode: ModeIOLAP, Batches: 10, Trials: 20, Slack: 0, Seed: 4}, true, false},
		// One group holds ~90% of the rows: the heavy-group replicate-split
		// and size-hinted light-group scheduling must stay bit-identical to
		// the sequential fold under extreme skew.
		{"skewed_group/iolap", theoremQuery(t, "flat_group_by"), 240, 11,
			Options{Mode: ModeIOLAP, Batches: 6, Trials: 25, Seed: 3}, false, true},
		{"skewed_group/join", theoremQuery(t, "join_dim_group"), 240, 11,
			Options{Mode: ModeIOLAP, Batches: 6, Trials: 25, Seed: 3}, false, true},
		// Skew + adversarial order + zero slack: the failure-recovery path
		// (snapshot restore, merged-delta replay) over a skewed fold.
		{"skewed_group/recovery", sbiQuery, 200, 7,
			Options{Mode: ModeIOLAP, Batches: 10, Trials: 20, Slack: 0, Seed: 4}, true, true},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			seqOpts, parOpts := c.opts, c.opts
			seqOpts.Workers, seqOpts.ParThreshold = 1, 1
			parOpts.Workers, parOpts.ParThreshold = 8, 1
			seq, seqEng := runEngineUpdates(t, c.query, c.n, c.dbSeed, seqOpts, c.sorted, c.skewed)
			par, parEng := runEngineUpdates(t, c.query, c.n, c.dbSeed, parOpts, c.sorted, c.skewed)
			assertUpdatesIdentical(t, seq, par)
			if seqEng.TotalRecoveries() != parEng.TotalRecoveries() {
				t.Errorf("TotalRecoveries: %d vs %d", seqEng.TotalRecoveries(), parEng.TotalRecoveries())
			}
			if strings.HasSuffix(c.name, "recovery") && seqEng.TotalRecoveries() == 0 {
				t.Fatalf("recovery fixture no longer triggers recoveries; the case tests nothing")
			}
		})
	}
}

// TestWorkerEquivalenceIntermediateWorkers sweeps the skewed fixture across
// worker counts: the deterministic-scheduling promise is per-count, not just
// at the 1-vs-8 extremes (a chunk-boundary bug could hide at w=2).
func TestWorkerEquivalenceIntermediateWorkers(t *testing.T) {
	query := theoremQuery(t, "flat_group_by")
	opts := Options{Mode: ModeIOLAP, Batches: 6, Trials: 25, Seed: 3, ParThreshold: 1, Workers: 1}
	ref, _ := runEngineUpdates(t, query, 240, 11, opts, false, true)
	for _, w := range []int{2, 8} {
		w := w
		t.Run(itoa(w)+"_workers", func(t *testing.T) {
			o := opts
			o.Workers = w
			got, _ := runEngineUpdates(t, query, 240, 11, o, false, true)
			assertUpdatesIdentical(t, ref, got)
		})
	}
}

// TestWorkerEquivalenceAboveThreshold repeats one shape with the adaptive
// cutover (ParThreshold 0) and batches large enough to cross it, so the gate
// itself — EWMA-derived thresholds deciding mid-run which sites fan out —
// is covered too. The adaptive gate's timing-dependent choices must be
// invisible in the output because every gated path is bit-identical.
func TestWorkerEquivalenceAboveThreshold(t *testing.T) {
	if testing.Short() {
		t.Skip("large fixture")
	}
	query := theoremQuery(t, "join_dim_group")
	opts := Options{Mode: ModeIOLAP, Batches: 4, Trials: 10, Seed: 5}
	seqOpts, parOpts := opts, opts
	seqOpts.Workers = 1
	parOpts.Workers = 8
	// 4 batches × ~1600 rows each ≫ every cold-start cutover.
	seq, _ := runEngineUpdates(t, query, 6400, 21, seqOpts, false, false)
	par, _ := runEngineUpdates(t, query, 6400, 21, parOpts, false, false)
	assertUpdatesIdentical(t, seq, par)
}
