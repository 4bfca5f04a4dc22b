package core

import (
	"cmp"
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"iolap/internal/agg"
	"iolap/internal/exec"
	"iolap/internal/expr"
	"iolap/internal/plan"
	"iolap/internal/rel"
	"iolap/internal/share"
	"iolap/internal/sql"
	"iolap/internal/workload"
)

func stepAll(t *testing.T, eng *Engine) []*Update {
	t.Helper()
	updates, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	return updates
}

func TestMinMaxQueriesAreExactPerBatch(t *testing.T) {
	// MIN/MAX are not smooth (no bootstrap CIs), but the engine still
	// maintains them exactly per batch.
	db := testDB(180, 51)
	root := planQuery(t, `SELECT cdn, MIN(buffer_time) AS mn, MAX(play_time) AS mx
		FROM sessions GROUP BY cdn`)
	eng, err := NewEngine(root, db, Options{Batches: 5, Trials: 10, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	for !eng.Done() {
		u, err := eng.Step()
		if err != nil {
			t.Fatal(err)
		}
		seen += eng.deltas[u.Batch-1].Len()
		want := oracle(t, root, db, "sessions", seen)
		if !rel.EqualBag(u.Result, want, 1e-9) {
			t.Fatalf("batch %d MIN/MAX diverged", u.Batch)
		}
	}
}

func TestNoBootstrapModeStillExact(t *testing.T) {
	// Trials < 0 disables bootstrap: no error estimates, no pruning
	// (ranges stay unbounded), but every partial result is still exact.
	db := testDB(150, 53)
	root := planQuery(t, sbiQuery)
	eng, err := NewEngine(root, db, Options{Batches: 5, Trials: -1, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	for !eng.Done() {
		u, err := eng.Step()
		if err != nil {
			t.Fatal(err)
		}
		seen += eng.deltas[u.Batch-1].Len()
		want := oracle(t, root, db, "sessions", seen)
		if !rel.EqualBag(u.Result, want, 1e-6) {
			t.Fatalf("batch %d diverged without bootstrap", u.Batch)
		}
		if u.MaxRelStdev() != 0 {
			t.Error("no bootstrap => no error estimates")
		}
	}
}

func TestPreShuffleStillConvergesToExact(t *testing.T) {
	db := testDB(160, 57)
	root := planQuery(t, sbiQuery)
	eng, err := NewEngine(root, db, Options{Batches: 4, Trials: 15, Seed: 9, PreShuffle: true})
	if err != nil {
		t.Fatal(err)
	}
	updates := stepAll(t, eng)
	baseline, err := exec.Run(root, db)
	if err != nil {
		t.Fatal(err)
	}
	if !rel.EqualBag(updates[len(updates)-1].Result, baseline, 1e-9) {
		t.Error("pre-shuffled stream must still converge to the exact answer")
	}
}

// setRangeSupport sets the estimator's binding threshold to n certain rows
// (n <= 0 restores rangeSupport); call it before the first Step.
func (e *Engine) setRangeSupport(n int) { e.comp.est.support = cmp.Or(max(n, 0), rangeSupport) }

func TestMinRangeSupportControlsPruning(t *testing.T) {
	run := func(minSupport int) int {
		db := testDB(300, 61)
		root := planQuery(t, sbiQuery)
		eng, err := NewEngine(root, db, Options{Batches: 6, Trials: 25, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		eng.setRangeSupport(minSupport)
		total := 0
		for _, u := range stepAll(t, eng) {
			total += u.Recomputed
		}
		return total
	}
	// An absurdly high support threshold disables pruning -> much more
	// recomputation than the default.
	low := run(10)
	high := run(1_000_000)
	if high <= low*2 {
		t.Errorf("disabling range pruning should inflate recomputation: support10=%d support1M=%d", low, high)
	}
}

// BenchmarkAblationMinRangeSupport sweeps the minimum group support below
// which variation ranges stay unbounded (rangeSupport is 20): too low causes
// spurious failure-recovery replays, too high disables pruning.
func BenchmarkAblationMinRangeSupport(b *testing.B) {
	for _, support := range []int{1, 20, 1 << 30} {
		b.Run(fmt.Sprintf("support=%d", support), func(b *testing.B) {
			w := workload.TPCH(workload.TPCHScale{Fact: 3000, Seed: 5})
			q, _ := w.Query("Q17")
			node, _, err := w.Plan(q)
			if err != nil {
				b.Fatal(err)
			}
			db := w.DB()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng, err := NewEngine(node, db, Options{Batches: 8, Trials: 30, Seed: 9})
				if err != nil {
					b.Fatal(err)
				}
				eng.setRangeSupport(support)
				if _, err := eng.Run(); err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(eng.TotalRecoveries()), "recoveries")
			}
		})
	}
}

// TestNewEngineRejectsOptions: options no estimate can be built with are
// NewEngine errors, whichever entry point set them (library, CLI flags, the
// serving wire), not a panic sizing the replicate vectors or a run under an
// undeclared mode. The bounds themselves are accepted.
func TestNewEngineRejectsOptions(t *testing.T) {
	db := testDB(100, 61)
	root := planQuery(t, sbiQuery)
	for _, c := range []struct {
		name string
		opts Options
		ok   bool
	}{
		{"trials_huge", Options{Trials: 1 << 62}, false},
		{"trials_above_bound", Options{Trials: maxTrials + 1}, false},
		{"trials_at_bound", Options{Trials: maxTrials}, true},
		{"trials_off", Options{Trials: -1}, true},
		{"slack_nan", Options{Slack: math.NaN()}, false},
		{"slack_inf", Options{Slack: math.Inf(1)}, false},
		{"slack_negative", Options{Slack: -3}, false},
		{"slack_tiny", Options{Slack: math.SmallestNonzeroFloat64}, true},
		{"mode_undeclared", Options{Mode: Mode(200)}, false},
		{"mode_negative", Options{Mode: -1}, false},
		{"mode_hda", Options{Mode: ModeHDA}, true},
		{"workers_huge", Options{Workers: 1 << 61}, false},
		{"workers_above_bound", Options{Workers: maxWorkers + 1}, false},
		{"workers_at_bound", Options{Workers: maxWorkers}, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			c.opts.Batches = 4
			eng, err := NewEngine(root, db, c.opts)
			if err == nil {
				eng.Close()
			}
			if (err == nil) != c.ok {
				t.Fatalf("NewEngine: err = %v, want accepted = %v", err, c.ok)
			}
		})
	}
}

func TestDeepNestingINWithCorrelatedScalar(t *testing.T) { theorem1Named(t, "in_and_correlated") }

func TestMultipleSubqueriesInOneWhere(t *testing.T) { theorem1Named(t, "two_subqueries") }

func TestAggregateOverDerivedAggregate(t *testing.T) { theorem1Named(t, "aggregate_of_derived") }

func TestVerySmallInputs(t *testing.T) {
	for _, n := range []int{1, 2, 3} {
		db := testDB(n, 71)
		root := planQuery(t, `SELECT COUNT(*) AS n, AVG(buffer_time) AS a FROM sessions`)
		eng, err := NewEngine(root, db, Options{Batches: 5, Trials: 10, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		// Batch count collapses to the row count.
		if len(eng.deltas) > n {
			t.Errorf("n=%d: batches %d > rows", n, len(eng.deltas))
		}
		updates := stepAll(t, eng)
		final := updates[len(updates)-1]
		if got := final.Result.Tuples[0].Vals[0].Float(); got != float64(n) {
			t.Errorf("n=%d: count = %v", n, got)
		}
	}
}

func TestEmptyStreamedTable(t *testing.T) {
	db := exec.NewDB()
	db.Put("sessions", rel.NewRelation(sessionsSchema()))
	cdns := rel.NewRelation(cdnsSchema())
	cdns.Append(rel.String("east"), rel.String("us-east"))
	db.Put("cdns", cdns)
	root := planQuery(t, `SELECT COUNT(*) AS n FROM sessions`)
	eng, err := NewEngine(root, db, Options{Batches: 3, Trials: 5})
	if err != nil {
		t.Fatal(err)
	}
	u, err := eng.Step()
	if err != nil {
		t.Fatal(err)
	}
	if got := u.Result.Tuples[0].Vals[0].Float(); got != 0 {
		t.Errorf("count over empty table = %v", got)
	}
}

func TestEmptyInnerAggregateNaNSemantics(t *testing.T) { theorem1Named(t, "empty_inner_nan") }

func TestFilteredInnerSubqueryGroups(t *testing.T) { theorem1Named(t, "filtered_correlated") }

// TestNullOperandUnderRanges: a NULL base value compared with an uncertain
// aggregate has no range of its own. Its range is the full line, so the row
// stays non-deterministic and fails the comparison at every batch, in every
// lattice cell; asking the NULL for a range must not panic.
func TestNullOperandUnderRanges(t *testing.T) {
	c := sessionsCase(t, "null_operand", `SELECT COUNT(*) AS n FROM sessions
		WHERE buffer_time > (SELECT AVG(buffer_time) FROM sessions)`, 100, Options{Batches: 4, Trials: 10, Seed: 3})
	s, _ := c.db.Get("sessions")
	for i := 0; i < len(s.Tuples); i += 7 {
		s.Tuples[i].Vals[1] = rel.Null() // buffer_time
	}
	runLattice(t, c)
}

// TestTheorem1TemplateFuzz sweeps a parameterised family of nested queries
// over random datasets and batch counts.
func TestTheorem1TemplateFuzz(t *testing.T) {
	if testing.Short() {
		t.Skip("long test")
	}
	for _, q := range templateShapes() {
		theorem1(t, q.query, q.n, q.opts)
	}
}

func TestRecomputedMonotoneUnderHDA(t *testing.T) {
	// HDA's recomputed set includes everything downstream of the inner
	// aggregate: it must grow with the accumulated data.
	db := testDB(400, 81)
	root := planQuery(t, sbiQuery)
	eng, err := NewEngine(root, db, Options{Mode: ModeHDA, Batches: 8, Trials: 10, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	updates := stepAll(t, eng)
	first, last := updates[1].Recomputed, updates[len(updates)-1].Recomputed
	if last <= first {
		t.Errorf("HDA recomputation must grow: batch2=%d batch%d=%d", first, len(updates), last)
	}
}

func TestScaleFactorsAcrossBatches(t *testing.T) {
	// COUNT(*) scaled by m_i must always estimate the full table size.
	db := testDB(500, 83)
	root := planQuery(t, `SELECT COUNT(*) AS n FROM sessions`)
	eng, err := NewEngine(root, db, Options{Batches: 10, Trials: 10, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range stepAll(t, eng) {
		if got := u.Result.Tuples[0].Vals[0].Float(); math.Abs(got-500) > 1e-9 {
			t.Fatalf("batch %d scaled count = %v, want 500", u.Batch, got)
		}
	}
}

func TestEngineSnapshotRestoreRoundTrip(t *testing.T) {
	// Restoring the base snapshot and replaying all batches as one merged
	// delta must reproduce the final result (the recovery machinery).
	db := testDB(150, 89)
	root := planQuery(t, sbiQuery)
	eng, err := NewEngine(root, db, Options{Batches: 4, Trials: 15, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	updates := stepAll(t, eng)
	final := updates[len(updates)-1].Result
	// Manually drive a scratch restore + merged replay.
	eng.restoreSnapshot(eng.base)
	merged := eng.mergeDeltas(0, eng.batch)
	eng.seenRows += merged.Len()
	bc := eng.newBatchContext(merged, eng.seenRows)
	if _, err := eng.comp.sink.step(bc); err != nil {
		t.Fatal(err)
	}
	replayed, _ := eng.comp.sink.materialize(bc)
	if !rel.EqualBag(final, replayed, 1e-9) {
		t.Errorf("merged replay diverges from incremental result\ninc:\n%s\nreplay:\n%s", final, replayed)
	}
}

func TestUnionOfTwoStreamedBranches(t *testing.T) { theorem1Named(t, "union_of_aggregates") }

// TestTwoStreamedTablesRejectedBeforeBuild: compilation refuses a plan that
// streams two tables before it builds any operator, so a serving engine's
// cache never builds, and then drops, a shared entry for a plan that cannot
// run.
func TestTwoStreamedTablesRejectedBeforeBuild(t *testing.T) {
	cat := testCatalog()
	cat.AddTable("cdns", cdnsSchema(), true)
	stmt, err := sql.Parse(`SELECT COUNT(*) AS n FROM sessions s, cdns c WHERE s.cdn = c.cdn
		AND s.play_time > (SELECT AVG(play_time) FROM sessions)`)
	if err != nil {
		t.Fatal(err)
	}
	root, _, err := sql.NewPlanner(cat, expr.NewRegistry(), agg.NewRegistry()).Plan(stmt)
	if err != nil {
		t.Fatal(err)
	}
	db := testDB(60, 1)
	src, _ := db.Get("sessions")
	cache := share.NewCache()
	_, err = NewEngine(root, db, Options{Batches: 3, Trials: 5, Deltas: ContiguousDeltas(src, 3), SharedState: cache})
	if err == nil || !strings.Contains(err.Error(), "exactly one streamed table required, plan has 2") {
		t.Fatalf("err = %v, want the two-streamed-tables refusal", err)
	}
	if st := cache.Stats(); st.Misses != 0 {
		t.Errorf("a refused plan built %d shared entries", st.Misses)
	}
}

func TestGroupByMultipleColumns(t *testing.T) { theorem1Named(t, "group_by_two_columns") }

func TestPlanFingerprintStableAcrossCompiles(t *testing.T) {
	db := testDB(50, 91)
	root := planQuery(t, sbiQuery)
	e1, err := NewEngine(root, db, Options{Batches: 2, Trials: 5})
	if err != nil {
		t.Fatal(err)
	}
	e2, err := NewEngine(root, db, Options{Batches: 2, Trials: 5})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Fingerprint(e1.comp.norm) != plan.Fingerprint(e2.comp.norm) {
		t.Error("normalization must be deterministic")
	}
}

func TestCountDistinctTheorem1(t *testing.T) { theorem1Named(t, "count_distinct") }

func TestStratifiedBatchingCoverageAndCorrectness(t *testing.T) {
	// Sort the data by cdn so un-stratified contiguous batches would see a
	// single stratum first; stratified batching must cover all four from
	// batch 1 — the rare one has fewer rows than there are batches — and
	// every partial result must still be Q(D_i, m_i) for the engine's actual
	// stream order.
	db := testDB(240, 107)
	sessions, _ := db.Get("sessions")
	sessions.Append(rel.String("r0"), rel.Float(12), rel.Float(300), rel.String("rare"))
	sessions.Append(rel.String("r1"), rel.Float(40), rel.Float(90), rel.String("rare"))
	sort.SliceStable(sessions.Tuples, func(i, j int) bool {
		return sessions.Tuples[i].Vals[3].Str() < sessions.Tuples[j].Vals[3].Str()
	})
	root := planQuery(t, `SELECT cdn, COUNT(*) AS n FROM sessions GROUP BY cdn`)
	eng, err := NewEngine(root, db, Options{
		Batches: 6, Trials: 10, Seed: 3, StratifyBy: "cdn",
	})
	if err != nil {
		t.Fatal(err)
	}
	// Oracle over the engine's stream order.
	streamed := rel.NewRelation(sessions.Schema)
	for _, d := range eng.deltas {
		streamed.Tuples = append(streamed.Tuples, d.Tuples...)
	}
	odb := exec.NewDB()
	odb.Put("sessions", streamed)
	cdns, _ := db.Get("cdns")
	odb.Put("cdns", cdns)
	seen := 0
	for !eng.Done() {
		u, err := eng.Step()
		if err != nil {
			t.Fatal(err)
		}
		seen += eng.deltas[u.Batch-1].Len()
		want := oracle(t, root, odb, "sessions", seen)
		if !rel.EqualBag(u.Result, want, 1e-6) {
			t.Fatalf("stratified batch %d diverged", u.Batch)
		}
		// Stratified coverage: every batch's partial result has all 4 CDNs.
		if u.Result.Len() != 4 {
			t.Errorf("batch %d covers %d strata, want 4", u.Batch, u.Result.Len())
		}
	}
	// Contrast: without stratification on sorted data, batch 1 sees 1 cdn.
	eng2, err := NewEngine(root, db, Options{Batches: 6, Trials: 10, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	u, err := eng2.Step()
	if err != nil {
		t.Fatal(err)
	}
	if u.Result.Len() >= 3 {
		t.Skip("sorted data unexpectedly covered all strata (generator change?)")
	}
}

func TestStratifyUnknownColumn(t *testing.T) {
	db := testDB(50, 109)
	root := planQuery(t, `SELECT COUNT(*) AS n FROM sessions`)
	if _, err := NewEngine(root, db, Options{StratifyBy: "nope"}); err == nil {
		t.Error("unknown stratify column must be rejected")
	}
}

func TestParallelFoldMatchesSequential(t *testing.T) {
	// Above the parallel-fold threshold, single-worker and multi-worker
	// engines must produce identical results (group sharding makes the
	// fold deterministic).
	c := goldenCase{query: `SELECT cdn, SUM(play_time) AS s, AVG(buffer_time) AS a, COUNT(*) AS n
		FROM sessions GROUP BY cdn`, n: 6000, dbSeed: 113, adaptive: true,
		opts: Options{Batches: 2, Trials: 20, Seed: 7}}
	assertConfigsAgree(t, c.lattice(t), execConfig{workers: 1}, execConfig{workers: 8})
}

func TestBlockwiseBatchingCorrectAndBlockAligned(t *testing.T) {
	db := testDB(200, 127)
	root := planQuery(t, sbiQuery)
	eng, err := NewEngine(root, db, Options{
		Batches: 4, Trials: 15, Seed: 11, BlockRows: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Oracle over the engine's actual (block-shuffled) stream order.
	sessions, _ := db.Get("sessions")
	streamed := rel.NewRelation(sessions.Schema)
	for _, d := range eng.deltas {
		streamed.Tuples = append(streamed.Tuples, d.Tuples...)
	}
	if !rel.EqualBag(sessions, streamed, 0) {
		t.Fatal("block shuffle must be a permutation of the table")
	}
	odb := exec.NewDB()
	odb.Put("sessions", streamed)
	cdns, _ := db.Get("cdns")
	odb.Put("cdns", cdns)
	seen := 0
	for !eng.Done() {
		u, err := eng.Step()
		if err != nil {
			t.Fatal(err)
		}
		seen += eng.deltas[u.Batch-1].Len()
		want := oracle(t, root, odb, "sessions", seen)
		if !rel.EqualBag(u.Result, want, 1e-6) {
			t.Fatalf("block-wise batch %d diverged", u.Batch)
		}
	}
	// Rows within a block stay together in stream order: ids were
	// generated sequentially, so the first 10 streamed rows must be one
	// contiguous id run.
	first := streamed.Tuples[0].Vals[0].Str()
	if first == "s0" {
		t.Log("block 0 happened to land first (fine)")
	}
	for i := 1; i < 10; i++ {
		prev := streamed.Tuples[i-1].Vals[0].Str()
		cur := streamed.Tuples[i].Vals[0].Str()
		if !adjacentIDs(prev, cur) {
			t.Fatalf("rows within the first block not contiguous: %s then %s", prev, cur)
		}
	}
}

func adjacentIDs(a, b string) bool {
	// ids look like "s<number>"
	var x, y int
	fmt.Sscanf(a, "s%d", &x)
	fmt.Sscanf(b, "s%d", &y)
	return y == x+1
}

func TestFinalBatchEstimatesAreExact(t *testing.T) {
	// Once all data is processed the answer is exact (paper Section 1:
	// "delivers accurate query results just as a traditional DBMS"), so
	// the error estimates must collapse.
	db := testDB(100, 131)
	root := planQuery(t, `SELECT COUNT(*) AS n FROM sessions`)
	eng, err := NewEngine(root, db, Options{Batches: 4, Trials: 30, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	updates := stepAll(t, eng)
	if got := updates[0].MaxRelStdev(); got <= 0 {
		t.Error("early batches must report uncertainty")
	}
	final := updates[len(updates)-1]
	if got := final.MaxRelStdev(); got != 0 {
		t.Errorf("final batch rel stdev = %v, want 0 (exact)", got)
	}
}

func TestConcurrentEnginesShareDatabase(t *testing.T) {
	// Multiple engines over the same (read-only) database must not
	// interfere; run under -race in CI.
	db := testDB(3000, 137)
	const n = 4
	results := make([]*rel.Relation, n)
	errs := make([]error, n)
	done := make(chan int, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer func() { done <- i }()
			// Each goroutine compiles its own engine from the shared plan
			// is NOT safe (plan ids), so plan per goroutine.
			localRoot := planQuery(t, sbiQuery)
			eng, err := NewEngine(localRoot, db, Options{
				Batches: 4, Trials: 20, Seed: uint64(50 + i),
			})
			if err != nil {
				errs[i] = err
				return
			}
			updates, err := eng.Run()
			if err != nil {
				errs[i] = err
				return
			}
			results[i] = updates[len(updates)-1].Result
		}(i)
	}
	for i := 0; i < n; i++ {
		<-done
	}
	for i, err := range errs {
		if err != nil {
			t.Fatalf("engine %d: %v", i, err)
		}
	}
	// All engines process the same full data: final results identical.
	for i := 1; i < n; i++ {
		if !rel.EqualBag(results[0], results[i], 1e-9) {
			t.Errorf("engine %d final result differs", i)
		}
	}
}

func TestGroupByExpressionTheorem1(t *testing.T) { theorem1Named(t, "group_by_expression") }

// TestSemiJoinKeepsAnswers: the semi-join decorrelate adds under a filtered
// dimension leaves the exact answer bit-identical to the same query whose
// dimension filter stays above the join (an OR with a sessions conjunct that
// never holds), which is planned without the semi-join. tags has several rows
// per cdn, so a semi-join that did not deduplicate would double the rows the
// inner SUM folds.
func TestSemiJoinKeepsAnswers(t *testing.T) {
	ref := strings.Replace(pushdownSemiJoin, "t.tag <> 'ads'", "(t.tag <> 'ads' OR s.play_time < 0)", 1)
	db := testDB(200, 42)
	var answers [2][]string
	for i, q := range []string{pushdownSemiJoin, ref} {
		root := planQuery(t, q)
		if semi := strings.Contains(plan.Format(root), "__in_key"); semi != (i == 0) {
			t.Fatalf("query %d: semi-join planned %v, want %v:\n%s", i, semi, i == 0, plan.Format(root))
		}
		out, err := exec.Run(root, db)
		if err != nil {
			t.Fatal(err)
		}
		for _, tp := range out.Tuples {
			answers[i] = append(answers[i], fmt.Sprintf("%s %x", tp.Vals[0].Str(), math.Float64bits(tp.Vals[1].Float())))
		}
		sort.Strings(answers[i])
	}
	if len(answers[0]) == 0 || strings.Join(answers[0], ";") != strings.Join(answers[1], ";") {
		t.Fatalf("semi-joined answer %v, reference %v", answers[0], answers[1])
	}
	t.Log(answers[0])
}
