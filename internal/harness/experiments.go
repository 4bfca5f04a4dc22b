package harness

import (
	"fmt"
	"runtime"
	"time"

	"iolap/internal/core"
	"iolap/internal/storage"
	"iolap/internal/workload"
)

// Table1 prints the mini-batch sizes used for the streamed relations, the
// analogue of the paper's Table 1.
func Table1(cfg Config) ([]*Result, error) {
	cfg = cfg.WithDefaults()
	res := &Result{
		ID:     "table1",
		Title:  "Batch sizes for the streamed relations",
		Header: []string{"workload", "table", "rows", "batches", "rows/batch", "batch KB"},
	}
	type entry struct {
		w     *workload.Workload
		table string
	}
	entries := []entry{
		{cfg.tpch(), "lineorder"},
		{cfg.tpch(), "partsupp"},
		{cfg.tpch(), "customer"},
		{cfg.conviva(), "conviva_sessions"},
	}
	for _, e := range entries {
		r := e.w.Tables[e.table]
		perBatch := (r.Len() + cfg.Batches - 1) / cfg.Batches
		batchBytes := int64(0)
		if r.Len() > 0 {
			batchBytes = int64(r.SizeBytes()) * int64(perBatch) / int64(r.Len())
		}
		res.Rows = append(res.Rows, []string{
			e.w.Name, e.table, fmt.Sprint(r.Len()), fmt.Sprint(cfg.Batches),
			fmt.Sprint(perBatch), kb(batchBytes),
		})
	}
	return []*Result{res}, nil
}

// Fig7a reproduces Figure 7(a): the relative-standard-deviation vs time
// curve of Conviva C8, with the baseline latency marked.
func Fig7a(cfg Config) ([]*Result, error) {
	cfg = cfg.WithDefaults()
	w := cfg.conviva()
	q, _ := w.Query("C8")
	baseLat, _, err := baseline(w, q)
	if err != nil {
		return nil, err
	}
	run, err := runQuery(w, q, core.Options{
		Batches: cfg.Batches * 2, Trials: cfg.Trials, Slack: cfg.Slack, Seed: cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	res := &Result{
		ID:     "fig7a",
		Title:  "Conviva C8: relative stdev vs cumulative time (baseline marked)",
		Header: []string{"batch", "fraction", "time_ms", "rel_stdev_pct"},
	}
	var cum time.Duration
	for _, u := range run.updates {
		cum += u.Duration
		res.Rows = append(res.Rows, []string{
			fmt.Sprint(u.Batch),
			fmt.Sprintf("%.2f", u.Fraction),
			ms(cum),
			fmt.Sprintf("%.3f", 100*u.MaxRelStdev()),
		})
	}
	res.Notes = append(res.Notes,
		fmt.Sprintf("baseline (batch engine, exact) latency: %s ms", ms(baseLat)),
		fmt.Sprintf("first approximate answer after %s ms (%.1f%% of baseline)",
			ms(run.updates[0].Duration),
			100*float64(run.updates[0].Duration)/float64(max(1, int64(baseLat)))))
	return []*Result{res}, nil
}

// fig7 runs the Figure 7(b)/(c) comparison for one workload: baseline vs
// iOLAP on 5% / 10% samples and on all the data.
func fig7(cfg Config, w *workload.Workload, id string) ([]*Result, error) {
	res := &Result{
		ID:    id,
		Title: w.Name + ": query latency (ms) — baseline vs iOLAP(5%), iOLAP(10%), iOLAP(full)",
		Header: []string{"query", "baseline", "iolap_5pct", "iolap_10pct", "iolap_full",
			"full/baseline"},
	}
	for _, q := range w.Queries {
		baseLat, _, err := baseline(w, q)
		if err != nil {
			return nil, err
		}
		// p = 20 so 5% is exactly one batch.
		run, err := runQuery(w, q, core.Options{
			Batches: 20, Trials: cfg.Trials, Slack: cfg.Slack, Seed: cfg.Seed,
		})
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, []string{
			q.Name,
			ms(baseLat),
			ms(run.latencyToFraction(0.05)),
			ms(run.latencyToFraction(0.10)),
			ms(run.totalLatency()),
			ratio(run.totalLatency(), baseLat) + "x",
		})
	}
	res.Notes = append(res.Notes,
		"paper shape: iOLAP(full) is 1.1x-2.5x the baseline; 10% samples take ~10-20% of baseline")
	return []*Result{res}, nil
}

// Fig7b is Figure 7(b) (TPC-H).
func Fig7b(cfg Config) ([]*Result, error) {
	cfg = cfg.WithDefaults()
	return fig7(cfg, cfg.tpch(), "fig7b")
}

// Fig7c is Figure 7(c) (Conviva).
func Fig7c(cfg Config) ([]*Result, error) {
	cfg = cfg.WithDefaults()
	return fig7(cfg, cfg.conviva(), "fig7c")
}

// fig8ratio runs the Figure 8(a-d) per-batch latency ratio HDA/iOLAP.
func fig8ratio(cfg Config, w *workload.Workload, id string) ([]*Result, error) {
	flat := &Result{
		ID:     id,
		Title:  w.Name + ": HDA/iOLAP per-batch latency ratio — flat SPJA queries",
		Header: append([]string{"query"}, batchHeader(cfg.Batches)...),
	}
	nested := &Result{
		ID:     id,
		Title:  w.Name + ": HDA/iOLAP per-batch latency ratio — nested queries",
		Header: append([]string{"query"}, batchHeader(cfg.Batches)...),
	}
	for _, q := range w.Queries {
		io, err := runQuery(w, q, core.Options{
			Batches: cfg.Batches, Trials: cfg.Trials, Slack: cfg.Slack, Seed: cfg.Seed,
		})
		if err != nil {
			return nil, err
		}
		hda, err := runQuery(w, q, core.Options{
			Mode: core.ModeHDA, Batches: cfg.Batches, Trials: cfg.Trials, Seed: cfg.Seed,
		})
		if err != nil {
			return nil, err
		}
		row := []string{q.Name}
		for b := 0; b < cfg.Batches; b++ {
			row = append(row, ratio(hda.updates[b].Duration, io.updates[b].Duration))
		}
		if q.Nested {
			nested.Rows = append(nested.Rows, row)
		} else {
			flat.Rows = append(flat.Rows, row)
		}
	}
	flat.Notes = append(flat.Notes,
		"paper shape: ~1x throughout (iOLAP reduces to classical delta rules on flat SPJA)")
	nested.Notes = append(nested.Notes,
		"paper shape: <1x in batch 1 (iOLAP pays for caching), growing roughly linearly after")
	return []*Result{flat, nested}, nil
}

func batchHeader(p int) []string {
	out := make([]string, p)
	for i := range out {
		out[i] = fmt.Sprintf("b%d", i+1)
	}
	return out
}

// Fig8ab is Figure 8(a,b) (TPC-H).
func Fig8ab(cfg Config) ([]*Result, error) {
	cfg = cfg.WithDefaults()
	return fig8ratio(cfg, cfg.tpch(), "fig8ab")
}

// Fig8cd is Figure 8(c,d) (Conviva).
func Fig8cd(cfg Config) ([]*Result, error) {
	cfg = cfg.WithDefaults()
	return fig8ratio(cfg, cfg.conviva(), "fig8cd")
}

// Fig8ef reproduces Figure 8(e,f): tuples recomputed per batch by iOLAP on
// the nested queries.
func Fig8ef(cfg Config) ([]*Result, error) {
	cfg = cfg.WithDefaults()
	var out []*Result
	for _, w := range []*workload.Workload{cfg.tpch(), cfg.conviva()} {
		res := &Result{
			ID:     "fig8ef",
			Title:  w.Name + ": tuples recomputed per batch (iOLAP, nested queries)",
			Header: append([]string{"query"}, batchHeader(cfg.Batches)...),
		}
		for _, q := range w.Queries {
			if !q.Nested {
				continue
			}
			run, err := runQuery(w, q, core.Options{
				Batches: cfg.Batches, Trials: cfg.Trials, Slack: cfg.Slack, Seed: cfg.Seed,
			})
			if err != nil {
				return nil, err
			}
			row := []string{q.Name}
			for _, u := range run.updates {
				row = append(row, fmt.Sprint(u.Recomputed))
			}
			res.Rows = append(res.Rows, row)
		}
		res.Notes = append(res.Notes,
			"paper shape: negligible vs batch input size, growing sub-linearly (often shrinking)")
		out = append(out, res)
	}
	return out, nil
}

// Fig9a reproduces the optimization breakdown on Conviva C2: per-batch
// latency of HDA, +OPT1 (uncertainty partitioning) and +OPT1+OPT2 (iOLAP).
func Fig9a(cfg Config) ([]*Result, error) {
	cfg = cfg.WithDefaults()
	w := cfg.conviva()
	q, _ := w.Query("C2")
	res := &Result{
		ID:     "fig9a",
		Title:  "Conviva C2: per-batch latency (ms) by optimization level",
		Header: append([]string{"mode"}, batchHeader(cfg.Batches)...),
	}
	modes := []struct {
		name string
		opts core.Options
	}{
		{"HDA", core.Options{Mode: core.ModeHDA, Batches: cfg.Batches, Trials: cfg.Trials, Seed: cfg.Seed}},
		{"OPT1", core.Options{Mode: core.ModeOPT1, Batches: cfg.Batches, Trials: cfg.Trials, Slack: cfg.Slack, Seed: cfg.Seed}},
		{"iOLAP=OPT1+OPT2", core.Options{Mode: core.ModeIOLAP, Batches: cfg.Batches, Trials: cfg.Trials, Slack: cfg.Slack, Seed: cfg.Seed}},
	}
	for _, m := range modes {
		run, err := runQuery(w, q, m.opts)
		if err != nil {
			return nil, err
		}
		row := []string{m.name}
		for _, u := range run.updates {
			row = append(row, ms(u.Duration))
		}
		res.Rows = append(res.Rows, row)
	}
	res.Notes = append(res.Notes,
		"paper shape: OPT1 cuts HDA's late-batch latency sharply; OPT2 shaves the remainder")
	return []*Result{res}, nil
}

// fig9state measures per-operator state sizes (Figures 9(b), 10(c)).
func fig9state(cfg Config, w *workload.Workload, id string) ([]*Result, error) {
	res := &Result{
		ID:    id,
		Title: w.Name + ": operator state sizes (KB)",
		Header: []string{"query", "join_state_total", "other_state_avg", "other_state_max",
			"baseline_shipped"},
	}
	for _, q := range w.Queries {
		run, err := runQuery(w, q, core.Options{
			Batches: cfg.Batches, Trials: cfg.Trials, Slack: cfg.Slack, Seed: cfg.Seed,
		})
		if err != nil {
			return nil, err
		}
		joinTotal := int64(0)
		otherSum, otherMax := int64(0), int64(0)
		for _, u := range run.updates {
			if int64(u.JoinStateBytes) > joinTotal {
				joinTotal = int64(u.JoinStateBytes) // stores accumulate; last = total
			}
			otherSum += int64(u.OtherStateBytes)
			if int64(u.OtherStateBytes) > otherMax {
				otherMax = int64(u.OtherStateBytes)
			}
		}
		baseShipped, err := baselineShipped(w, q, cfg)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, []string{
			q.Name,
			kb(joinTotal),
			kb(otherSum / int64(len(run.updates))),
			kb(otherMax),
			kb(baseShipped),
		})
	}
	res.Notes = append(res.Notes,
		"paper shape: join states dominate on snowflake joins but stay below baseline shipped data; other states are small")
	return []*Result{res}, nil
}

// baselineShipped estimates the data the batch baseline ships, by running
// the plan once through the online runtime as a single batch without
// bootstrap (the exchange byte accounting is identical).
func baselineShipped(w *workload.Workload, q workload.Query, cfg Config) (int64, error) {
	run, err := runQuery(w, q, core.Options{Mode: core.ModeHDA, Batches: 1, Trials: -1, Seed: cfg.Seed})
	if err != nil {
		return 0, err
	}
	return run.engine.TotalExchangeBytes(), nil
}

// Fig9b is Figure 9(b) (TPC-H state sizes).
func Fig9b(cfg Config) ([]*Result, error) {
	cfg = cfg.WithDefaults()
	return fig9state(cfg, cfg.tpch(), "fig9b")
}

// Fig10c is Figure 10(c) (Conviva state sizes).
func Fig10c(cfg Config) ([]*Result, error) {
	cfg = cfg.WithDefaults()
	return fig9state(cfg, cfg.conviva(), "fig10c")
}

// fig9shipped measures data shipped at query time (Figures 9(c), 10(d)).
func fig9shipped(cfg Config, w *workload.Workload, id string) ([]*Result, error) {
	res := &Result{
		ID:    id,
		Title: w.Name + ": data shipped at query time (KB)",
		Header: []string{"query", "baseline", "iolap_total", "iolap_batch_avg",
			"iolap_batch_max"},
	}
	for _, q := range w.Queries {
		run, err := runQuery(w, q, core.Options{
			Batches: cfg.Batches, Trials: cfg.Trials, Slack: cfg.Slack, Seed: cfg.Seed,
		})
		if err != nil {
			return nil, err
		}
		// "Data shipped" counts both exchange kinds: repartition traffic and
		// broadcast replication (published aggregate tables, scalar sides).
		var total, maxB int64
		for _, u := range run.updates {
			b := u.ShuffleBytes + u.BroadcastBytes
			total += b
			if b > maxB {
				maxB = b
			}
		}
		baseShipped, err := baselineShipped(w, q, cfg)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, []string{
			q.Name,
			kb(baseShipped),
			kb(total),
			kb(total / int64(len(run.updates))),
			kb(maxB),
		})
	}
	res.Notes = append(res.Notes,
		"paper shape: iOLAP total carries a bounded overhead over baseline (bootstrap/lineage columns); per-batch is 1-2 orders of magnitude below baseline")
	return []*Result{res}, nil
}

// Fig9c is Figure 9(c) (TPC-H data shipped).
func Fig9c(cfg Config) ([]*Result, error) {
	cfg = cfg.WithDefaults()
	return fig9shipped(cfg, cfg.tpch(), "fig9c")
}

// Fig10d is Figure 10(d) (Conviva data shipped).
func Fig10d(cfg Config) ([]*Result, error) {
	cfg = cfg.WithDefaults()
	return fig9shipped(cfg, cfg.conviva(), "fig10d")
}

var slackSweep = []float64{0.0001, 0.5, 1.0, 1.5, 2.0, 2.5}

func slackLabel(s float64) string {
	if s < 0.01 {
		return "0"
	}
	return fmt.Sprintf("%.1f", s)
}

// figSlack runs the slack sweeps (Figures 9(d,e) and 10(e,f)): probability
// of failure-recovery and average tuples recomputed per batch, per query,
// as the slack ε varies.
func figSlack(cfg Config, w *workload.Workload, id string) ([]*Result, error) {
	fail := &Result{
		ID:     id,
		Title:  w.Name + ": probability of failure-recovery vs slack",
		Header: []string{"query"},
	}
	recomp := &Result{
		ID:     id,
		Title:  w.Name + ": avg tuples recomputed per batch vs slack",
		Header: []string{"query"},
	}
	for _, s := range slackSweep {
		fail.Header = append(fail.Header, "eps="+slackLabel(s))
		recomp.Header = append(recomp.Header, "eps="+slackLabel(s))
	}
	for _, q := range w.Queries {
		if !q.Nested {
			continue
		}
		failRow := []string{q.Name}
		recompRow := []string{q.Name}
		for _, s := range slackSweep {
			failures := 0
			var recomputed float64
			for run := 0; run < cfg.Runs; run++ {
				r, err := runQuery(w, q, core.Options{
					Batches: cfg.Batches, Trials: cfg.Trials, Slack: s,
					Seed: cfg.Seed + uint64(run)*101,
				})
				if err != nil {
					return nil, err
				}
				if r.engine.TotalRecoveries() > 0 {
					failures++
				}
				var sum int
				for _, u := range r.updates {
					sum += u.Recomputed
				}
				recomputed += float64(sum) / float64(len(r.updates))
			}
			failRow = append(failRow, fmt.Sprintf("%.0f%%", 100*float64(failures)/float64(cfg.Runs)))
			recompRow = append(recompRow, fmt.Sprintf("%.0f", recomputed/float64(cfg.Runs)))
		}
		fail.Rows = append(fail.Rows, failRow)
		recomp.Rows = append(recomp.Rows, recompRow)
	}
	fail.Notes = append(fail.Notes,
		"paper shape: failure probability drops fast with slack; ~0 by eps=2.0")
	recomp.Notes = append(recomp.Notes,
		"paper shape: non-deterministic sets grow slowly with slack")
	return []*Result{fail, recomp}, nil
}

// Fig9d is Figure 9(d) (Conviva failure probability; 9(e) shares the run).
func Fig9d(cfg Config) ([]*Result, error) {
	cfg = cfg.WithDefaults()
	out, err := figSlack(cfg, cfg.conviva(), "fig9d")
	if err != nil {
		return nil, err
	}
	return out[:1], nil
}

// Fig9e is Figure 9(e) (Conviva recomputed tuples vs slack).
func Fig9e(cfg Config) ([]*Result, error) {
	cfg = cfg.WithDefaults()
	out, err := figSlack(cfg, cfg.conviva(), "fig9e")
	if err != nil {
		return nil, err
	}
	return out[1:], nil
}

// Fig10ef is Figure 10(e,f) (TPC-H slack sweep).
func Fig10ef(cfg Config) ([]*Result, error) {
	cfg = cfg.WithDefaults()
	return figSlack(cfg, cfg.tpch(), "fig10ef")
}

// Fig9fg reproduces Figure 9(f,g): per-batch and total latency across batch
// sizes, Conviva.
func Fig9fg(cfg Config) ([]*Result, error) {
	cfg = cfg.WithDefaults()
	w := cfg.conviva()
	sizes := []int{cfg.Batches * 2, cfg.Batches * 3 / 2, cfg.Batches, cfg.Batches * 2 / 3, cfg.Batches / 2}
	perBatch := &Result{
		ID:     "fig9fg",
		Title:  "Conviva: average batch latency (ms) vs batch size",
		Header: []string{"query"},
	}
	total := &Result{
		ID:     "fig9fg",
		Title:  "Conviva: total query latency (ms) vs batch size",
		Header: []string{"query"},
	}
	for _, p := range sizes {
		label := fmt.Sprintf("p=%d", p)
		perBatch.Header = append(perBatch.Header, label)
		total.Header = append(total.Header, label)
	}
	for _, q := range w.Queries {
		pbRow := []string{q.Name}
		totRow := []string{q.Name}
		for _, p := range sizes {
			run, err := runQuery(w, q, core.Options{
				Batches: p, Trials: cfg.Trials, Slack: cfg.Slack, Seed: cfg.Seed,
			})
			if err != nil {
				return nil, err
			}
			tot := run.totalLatency()
			pbRow = append(pbRow, ms(tot/time.Duration(len(run.updates))))
			totRow = append(totRow, ms(tot))
		}
		perBatch.Rows = append(perBatch.Rows, pbRow)
		total.Rows = append(total.Rows, totRow)
	}
	perBatch.Notes = append(perBatch.Notes,
		"paper shape: per-batch latency grows ~linearly with batch size (fewer batches)")
	total.Notes = append(total.Notes,
		"paper shape: total latency decreases with batch size (less scheduling overhead)")
	return []*Result{perBatch, total}, nil
}

// Fig10ab reproduces Figure 10(a,b): iOLAP vs HDA latency on 5%/10% samples
// and the full data.
func Fig10ab(cfg Config) ([]*Result, error) {
	cfg = cfg.WithDefaults()
	var out []*Result
	for _, w := range []*workload.Workload{cfg.tpch(), cfg.conviva()} {
		res := &Result{
			ID:    "fig10ab",
			Title: w.Name + ": iOLAP vs HDA latency (ms)",
			Header: []string{"query", "iolap_5pct", "iolap_10pct", "iolap_full",
				"hda_5pct", "hda_10pct", "hda_full", "hda/iolap_full"},
		}
		for _, q := range w.Queries {
			io, err := runQuery(w, q, core.Options{
				Batches: 20, Trials: cfg.Trials, Slack: cfg.Slack, Seed: cfg.Seed,
			})
			if err != nil {
				return nil, err
			}
			hda, err := runQuery(w, q, core.Options{
				Mode: core.ModeHDA, Batches: 20, Trials: cfg.Trials, Seed: cfg.Seed,
			})
			if err != nil {
				return nil, err
			}
			res.Rows = append(res.Rows, []string{
				q.Name,
				ms(io.latencyToFraction(0.05)),
				ms(io.latencyToFraction(0.10)),
				ms(io.totalLatency()),
				ms(hda.latencyToFraction(0.05)),
				ms(hda.latencyToFraction(0.10)),
				ms(hda.totalLatency()),
				ratio(hda.totalLatency(), io.totalLatency()) + "x",
			})
		}
		res.Notes = append(res.Notes,
			"paper shape: comparable on flat SPJA; on nested queries HDA's full-data latency blows past iOLAP's")
		out = append(out, res)
	}
	return out, nil
}

// Spill is an extra experiment (not a paper artifact): it sweeps the
// join-state byte budget on the join-heavy TPC-H Q17 and shows the paper's
// Figure 9(b)/10(c) state-size story under memory pressure — resident state
// shrinks to the budget while spill files absorb the rest, and the refined
// results stay bit-identical to the unlimited-memory run at every budget.
func Spill(cfg Config) ([]*Result, error) {
	cfg = cfg.WithDefaults()
	w := cfg.tpch()
	q, ok := w.Query("Q17")
	if !ok {
		return nil, fmt.Errorf("spill: no Q17 in workload %s", w.Name)
	}
	opts := core.Options{Batches: cfg.Batches, Trials: cfg.Trials, Slack: cfg.Slack, Seed: cfg.Seed}
	ref, err := runQuery(w, q, opts)
	if err != nil {
		return nil, err
	}
	peak := 0
	for _, u := range ref.updates {
		if u.JoinStateBytes > peak {
			peak = u.JoinStateBytes
		}
	}
	budgets := []struct {
		name   string
		budget int64
	}{
		{"unlimited", 0},
		{"peak/2", max(1, int64(peak/2))},
		{"peak/8", max(1, int64(peak/8))},
		{"zero", -1},
	}
	res := &Result{
		ID:    "spill",
		Title: "TPC-H Q17: join-state budget vs resident state and spill traffic",
		Header: []string{"budget", "join_state_kb", "resident_kb", "spilled_rows",
			"written_kb", "read_kb", "total_ms", "identical"},
	}
	for _, b := range budgets {
		o := opts
		o.StateBudgetBytes = b.budget
		o.SpillFS = storage.NewMemFS()
		run, err := runQuery(w, q, o)
		if err != nil {
			return nil, err
		}
		identical := run.identicalTo(ref)
		last := run.updates[len(run.updates)-1]
		res.Rows = append(res.Rows, []string{
			b.name,
			kb(int64(last.JoinStateBytes)),
			kb(int64(last.JoinStateResidentBytes)),
			fmt.Sprint(run.engine.SpilledRows()),
			kb(run.engine.TotalSpillBytesWritten()),
			kb(run.engine.TotalSpillBytesRead()),
			ms(run.totalLatency()),
			yesNo(identical),
		})
		if err := run.engine.Close(); err != nil {
			return nil, err
		}
	}
	res.Notes = append(res.Notes,
		"expected: resident state tracks the budget while logical state and results are budget-invariant; disk traffic grows as the budget shrinks")
	return []*Result{res}, nil
}

// stateShapes are the nested queries of the benchmark's nested_unc and
// nested_tiny workloads, at their row counts (bench/workloads.go).
var stateShapes = []struct {
	conviva bool
	rows    int
	queries []string
}{
	{true, 50000, []string{"C1", "C2", "C6", "C8"}},
	{false, 50000, []string{"Q11"}},
	{false, 16000, []string{"Q17", "Q18", "Q20"}},
}

// State is an extra experiment (not a paper artifact): for each nested query
// of the benchmark, at its row count and at the configured batches and
// trials, it prints per batch the state the engine accounts
// (Update.JoinStateBytes + OtherStateBytes, the figure behind Fig 9(b),
// 10(c) and the benchmark's peak_state_mb), the live heap the engine holds
// over the database after runtime.GC(), and the weight vectors the batch's
// readers drew for tuples of earlier batches (OpStat.Redraws): rows a join
// store kept by index.
func State(cfg Config) ([]*Result, error) {
	cfg = cfg.WithDefaults()
	res := &Result{
		ID:     "state",
		Title:  "accounted state vs live heap over the database (MB), per batch",
		Header: []string{"query", "rows", "batch", "accounted_mb", "live_mb", "redraws"},
	}
	mb := func(n int64) string { return fmt.Sprintf("%.2f", float64(n)/(1<<20)) }
	for _, sh := range stateShapes {
		w := workload.TPCH(workload.TPCHScale{Fact: sh.rows, Seed: int64(cfg.Seed)})
		if sh.conviva {
			w = workload.Conviva(workload.ConvivaScale{Sessions: sh.rows, Seed: int64(cfg.Seed)})
		}
		for _, name := range sh.queries {
			q, ok := w.Query(name)
			if !ok {
				return nil, fmt.Errorf("state: no %s in workload %s", name, w.Name)
			}
			node, _, err := w.Plan(q)
			if err != nil {
				return nil, err
			}
			base := liveHeap()
			eng, err := core.NewEngine(node, w.DB(), core.Options{
				Batches: cfg.Batches, Trials: cfg.Trials, Slack: cfg.Slack, Seed: cfg.Seed,
			})
			if err != nil {
				return nil, fmt.Errorf("state: %s/%s: %w", w.Name, name, err)
			}
			for !eng.Done() {
				u, err := eng.Step()
				if err != nil {
					return nil, fmt.Errorf("state: %s/%s: %w", w.Name, name, err)
				}
				redraws := 0
				for _, st := range eng.OpStats() {
					redraws += st.Redraws
				}
				// The update is dead past this line: its result is not state.
				accounted := mb(int64(u.JoinStateBytes + u.OtherStateBytes))
				res.Rows = append(res.Rows, []string{name, fmt.Sprint(sh.rows), fmt.Sprint(u.Batch), accounted,
					mb(liveHeap() - base), fmt.Sprint(redraws)})
			}
			eng.Close()
		}
	}
	res.Notes = append(res.Notes,
		"live_mb is runtime.MemStats.HeapAlloc after runtime.GC(), less its value before the engine was built; redraws sums the batch's operators")
	return []*Result{res}, nil
}

// liveHeap is the heap in use after a collection.
func liveHeap() int64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}

func yesNo(b bool) string {
	if b {
		return "yes"
	}
	return "NO"
}

// ScaleSensitivity is an extra experiment (not a paper artifact): it tracks
// the tiny-group deviations documented in EXPERIMENTS.md note (a) as the
// dataset grows — the non-deterministic fraction of the ND-heavy Q17 and the
// HDA/iOLAP full-run ratio of the nested C8. Q17's groups do not grow with
// the data, so its ranges stay below the range support (20) at every scale.
func ScaleSensitivity(cfg Config) ([]*Result, error) {
	cfg = cfg.WithDefaults()
	res := &Result{
		ID:    "scale",
		Title: "scale sensitivity: ND fraction (Q17) and HDA/iOLAP ratio (C8) vs fact rows",
		Header: []string{"fact_rows", "q17_nd_fraction_pct", "q17_recoveries",
			"c8_hda/iolap"},
	}
	for _, mult := range []int{1, 2, 4} {
		factRows := cfg.TPCHFact * mult
		tw := workload.TPCH(workload.TPCHScale{Fact: factRows, Seed: int64(cfg.Seed)})
		q17, _ := tw.Query("Q17")
		run, err := runQuery(tw, q17, core.Options{
			Batches: cfg.Batches, Trials: cfg.Trials, Slack: cfg.Slack, Seed: cfg.Seed,
		})
		if err != nil {
			return nil, err
		}
		last := run.updates[len(run.updates)-1]
		ndFrac := 100 * float64(last.NDSetRows) / float64(factRows)

		cw := workload.Conviva(workload.ConvivaScale{Sessions: cfg.ConvivaSessions * mult, Seed: int64(cfg.Seed)})
		c8, _ := cw.Query("C8")
		io, err := runQuery(cw, c8, core.Options{
			Batches: cfg.Batches, Trials: cfg.Trials, Slack: cfg.Slack, Seed: cfg.Seed,
		})
		if err != nil {
			return nil, err
		}
		hda, err := runQuery(cw, c8, core.Options{
			Mode: core.ModeHDA, Batches: cfg.Batches, Trials: cfg.Trials, Seed: cfg.Seed,
		})
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, []string{
			fmt.Sprint(factRows),
			fmt.Sprintf("%.1f", ndFrac),
			fmt.Sprint(run.engine.TotalRecoveries()),
			ratio(hda.totalLatency(), io.totalLatency()) + "x",
		})
	}
	res.Notes = append(res.Notes,
		"expected: Q17's ND fraction stays flat as data grows: its groups do not grow with the data, so their support never reaches the range threshold")
	return []*Result{res}, nil
}
