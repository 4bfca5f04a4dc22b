package iolap

// One benchmark per table/figure of the paper's evaluation (Section 8).
// Each bench drives the corresponding experiment in internal/harness at a
// bench-friendly scale and reports the series through b.Log on -v; the
// ns/op numbers measure the end-to-end cost of regenerating the artifact.
// `go run ./cmd/experiments` produces the same series at larger scales and
// writes them into EXPERIMENTS.md form.

import (
	"fmt"
	"io"
	"testing"

	"iolap/internal/core"
	"iolap/internal/exec"
	"iolap/internal/harness"
	"iolap/internal/workload"
)

func benchCfg() harness.Config {
	return harness.Config{
		TPCHFact:        1500,
		ConvivaSessions: 1200,
		Batches:         8,
		Trials:          25,
		Slack:           2.0,
		Seed:            11,
		Runs:            2,
	}
}

func runExperiment(b *testing.B, id string) {
	b.Helper()
	exp, ok := harness.Lookup(id)
	if !ok {
		b.Fatalf("experiment %s not registered", id)
	}
	cfg := benchCfg()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results, err := exp.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 && testing.Verbose() {
			for _, r := range results {
				r.Print(benchWriter{b})
			}
		}
	}
}

type benchWriter struct{ b *testing.B }

func (w benchWriter) Write(p []byte) (int, error) {
	w.b.Log(string(p))
	return len(p), nil
}

var _ io.Writer = benchWriter{}

// BenchmarkTable1BatchSizes regenerates Table 1 (batch sizes).
func BenchmarkTable1BatchSizes(b *testing.B) { runExperiment(b, "table1") }

// BenchmarkFigure7a regenerates Figure 7(a): accuracy vs time on Conviva C8.
func BenchmarkFigure7a(b *testing.B) { runExperiment(b, "fig7a") }

// BenchmarkFigure7b regenerates Figure 7(b): TPC-H latency vs the baseline.
func BenchmarkFigure7b(b *testing.B) { runExperiment(b, "fig7b") }

// BenchmarkFigure7c regenerates Figure 7(c): Conviva latency vs the baseline.
func BenchmarkFigure7c(b *testing.B) { runExperiment(b, "fig7c") }

// BenchmarkFigure8TPCH regenerates Figure 8(a,b): HDA/iOLAP batch ratios.
func BenchmarkFigure8TPCH(b *testing.B) { runExperiment(b, "fig8ab") }

// BenchmarkFigure8Conviva regenerates Figure 8(c,d).
func BenchmarkFigure8Conviva(b *testing.B) { runExperiment(b, "fig8cd") }

// BenchmarkFigure8Recompute regenerates Figure 8(e,f): recomputed tuples.
func BenchmarkFigure8Recompute(b *testing.B) { runExperiment(b, "fig8ef") }

// BenchmarkFigure9a regenerates Figure 9(a): the optimization breakdown.
func BenchmarkFigure9a(b *testing.B) { runExperiment(b, "fig9a") }

// BenchmarkFigure9b regenerates Figure 9(b): TPC-H operator state sizes.
func BenchmarkFigure9b(b *testing.B) { runExperiment(b, "fig9b") }

// BenchmarkFigure9c regenerates Figure 9(c): TPC-H data shipped.
func BenchmarkFigure9c(b *testing.B) { runExperiment(b, "fig9c") }

// BenchmarkFigure9d regenerates Figure 9(d): slack vs failure-recovery.
func BenchmarkFigure9d(b *testing.B) { runExperiment(b, "fig9d") }

// BenchmarkFigure9e regenerates Figure 9(e): slack vs recomputed tuples.
func BenchmarkFigure9e(b *testing.B) { runExperiment(b, "fig9e") }

// BenchmarkFigure9fg regenerates Figure 9(f,g): batch size vs latency.
func BenchmarkFigure9fg(b *testing.B) { runExperiment(b, "fig9fg") }

// BenchmarkFigure10ab regenerates Figure 10(a,b): iOLAP vs HDA end to end.
func BenchmarkFigure10ab(b *testing.B) { runExperiment(b, "fig10ab") }

// BenchmarkFigure10c regenerates Figure 10(c): Conviva state sizes.
func BenchmarkFigure10c(b *testing.B) { runExperiment(b, "fig10c") }

// BenchmarkFigure10d regenerates Figure 10(d): Conviva data shipped.
func BenchmarkFigure10d(b *testing.B) { runExperiment(b, "fig10d") }

// BenchmarkFigure10ef regenerates Figure 10(e,f): the TPC-H slack sweep.
func BenchmarkFigure10ef(b *testing.B) { runExperiment(b, "fig10ef") }

// ---------------------------------------------------------------------------
// Engine micro-benchmarks (not paper artifacts; ablation aids)

// benchEngineBatch measures steady-state per-batch latency on one query.
func benchEngineBatch(b *testing.B, queryName string, mode core.Mode) {
	w := workload.Conviva(workload.ConvivaScale{Sessions: 2000, Seed: 3})
	q, ok := w.Query(queryName)
	if !ok {
		b.Fatalf("query %s missing", queryName)
	}
	node, _, err := w.Plan(q)
	if err != nil {
		b.Fatal(err)
	}
	db := w.DB()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng, err := core.NewEngine(node, db, core.Options{
			Mode: mode, Batches: 8, Trials: 25, Seed: 17,
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := eng.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineNestedIOLAP measures the full iOLAP engine on the nested C2.
func BenchmarkEngineNestedIOLAP(b *testing.B) { benchEngineBatch(b, "C2", core.ModeIOLAP) }

// BenchmarkEngineNestedHDA measures the HDA baseline on the nested C2.
func BenchmarkEngineNestedHDA(b *testing.B) { benchEngineBatch(b, "C2", core.ModeHDA) }

// BenchmarkEngineFlat measures iOLAP on the flat C3 (classical-delta
// territory).
func BenchmarkEngineFlat(b *testing.B) { benchEngineBatch(b, "C3", core.ModeIOLAP) }

// BenchmarkBootstrapOverhead contrasts trials=0 against trials=100 on C8 —
// the error-estimation overhead the paper attributes most of iOLAP's
// full-run cost to.
func BenchmarkBootstrapOverhead(b *testing.B) {
	for _, trials := range []int{1, 25, 100} {
		b.Run(fmt.Sprintf("trials=%d", trials), func(b *testing.B) {
			w := workload.Conviva(workload.ConvivaScale{Sessions: 1500, Seed: 5})
			q, _ := w.Query("C8")
			node, _, err := w.Plan(q)
			if err != nil {
				b.Fatal(err)
			}
			db := w.DB()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng, err := core.NewEngine(node, db, core.Options{
					Batches: 6, Trials: trials, Seed: 13,
				})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := eng.Run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Partition-parallel scaling

// BenchmarkParallelJoinAggregate measures the partition-parallel delta
// pipeline on a large-batch join+aggregate (TPC-H Q3: customer ⋈ lineorder,
// grouped) at increasing worker counts. Results are bit-identical at every
// worker count — the execution lattice of internal/core enforces it — so this bench isolates the scheduling win: on a multi-core
// machine 8 workers should beat 1 by ≥2×; on a single-CPU host they tie.
func BenchmarkParallelJoinAggregate(b *testing.B) {
	w := workload.TPCH(workload.TPCHScale{Fact: 40000, Seed: 7})
	q, ok := w.Query("Q3")
	if !ok {
		b.Fatal("query Q3 missing")
	}
	node, _, err := w.Plan(q)
	if err != nil {
		b.Fatal(err)
	}
	db := w.DB()
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				eng, err := core.NewEngine(node, db, core.Options{
					Batches: 5, Trials: 50, Seed: 17, Workers: workers,
				})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := eng.Run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkParallelExactBaseline measures the exact one-shot executor
// (exec.RunWorkers) on the same join+aggregate plan — the sharded hash join
// and group-sharded aggregation without any delta machinery.
func BenchmarkParallelExactBaseline(b *testing.B) {
	w := workload.TPCH(workload.TPCHScale{Fact: 60000, Seed: 7})
	q, ok := w.Query("Q3")
	if !ok {
		b.Fatal("query Q3 missing")
	}
	node, _, err := w.Plan(q)
	if err != nil {
		b.Fatal(err)
	}
	db := w.DB()
	for _, workers := range []int{1, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := exec.RunWorkers(node, db, workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Ablation benches for the design choices documented in DESIGN.md §6

// BenchmarkAblationMinRangeSupport sweeps the minimum group support below
// which variation ranges stay unbounded: too low causes spurious
// failure-recovery replays, too high disables pruning.
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
				eng, err := core.NewEngine(node, db, core.Options{
					Batches: 8, Trials: 30, Seed: 9, MinRangeSupport: support,
				})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := eng.Run(); err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(eng.TotalRecoveries()), "recoveries")
			}
		})
	}
}

// BenchmarkAblationLazyLineage contrasts lazy reference dereferencing
// (iOLAP) against per-batch state-row regeneration (OPT1) on a query with a
// large non-deterministic set.
func BenchmarkAblationLazyLineage(b *testing.B) {
	for _, mode := range []core.Mode{core.ModeIOLAP, core.ModeOPT1} {
		b.Run(mode.String(), func(b *testing.B) {
			w := workload.Conviva(workload.ConvivaScale{Sessions: 3000, Seed: 5})
			q, _ := w.Query("C2")
			node, _, err := w.Plan(q)
			if err != nil {
				b.Fatal(err)
			}
			db := w.DB()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng, err := core.NewEngine(node, db, core.Options{
					Mode: mode, Batches: 8, Trials: 30, Seed: 9,
				})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := eng.Run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationBatching compares the batching strategies: contiguous
// blocks (default), HDFS-style block shuffling, full row pre-shuffle, and
// proportional stratification.
func BenchmarkAblationBatching(b *testing.B) {
	variants := []struct {
		name string
		opts core.Options
	}{
		{"contiguous", core.Options{}},
		{"blockwise", core.Options{BlockRows: 128}},
		{"preshuffle", core.Options{PreShuffle: true}},
		{"stratified", core.Options{StratifyBy: "cdn"}},
	}
	for _, v := range variants {
		v := v
		b.Run(v.name, func(b *testing.B) {
			w := workload.Conviva(workload.ConvivaScale{Sessions: 3000, Seed: 5})
			q, _ := w.Query("C1")
			node, _, err := w.Plan(q)
			if err != nil {
				b.Fatal(err)
			}
			db := w.DB()
			opts := v.opts
			opts.Batches = 8
			opts.Trials = 30
			opts.Seed = 9
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng, err := core.NewEngine(node, db, opts)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := eng.Run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
