package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"iolap/internal/bootstrap"
	"iolap/internal/harness"
)

// abRun is one line `make ab` appends to .ab/<workload>.jsonl: which side ran,
// and the two JSON lines bench/run.sh printed for it (context, then result).
type abRun struct {
	Side    string `json:"side"` // "parent" or "change"
	Context struct {
		Host struct {
			Cores      int    `json:"cores"`
			GOMAXPROCS int    `json:"gomaxprocs"`
			Commit     string `json:"commit"`
		} `json:"host"`
	} `json:"context"`
	Result struct {
		Correct bool `json:"correct"`
		Failed  int  `json:"failed"`
		Metrics map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	} `json:"result"`
}

// abReport summarises the paired A/B runs recorded under dir. Per workload
// file, the k-th parent run pairs with the k-th change run in file order, and
// every end-to-end metric of the benchmark declaration at declPath reports
// both sides' medians, the median of the per-pair change/parent ratios with a
// bootstrap 95% interval on it (fmtCI), and in how many pairs the change was
// better in the metric's own direction.
func abReport(dir, declPath string) ([]*harness.Result, error) {
	var decl struct {
		EndToEnd []struct {
			Name   string `json:"name"`
			Better string `json:"better"`
		} `json:"end_to_end"`
	}
	data, err := os.ReadFile(declPath)
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		return nil, fmt.Errorf("%s: %w", declPath, err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.jsonl"))
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no %s/*.jsonl: record runs with `make ab W=<workload> PARENT=<rev>`", dir)
	}
	var results []*harness.Result
	for _, path := range files {
		sides, err := readABRuns(path)
		if err != nil {
			return nil, err
		}
		parent, change := sides["parent"], sides["change"]
		pairs := min(len(parent), len(change))
		if pairs == 0 {
			return nil, fmt.Errorf("%s: no complete parent/change pair", path)
		}
		r := &harness.Result{
			ID:     "ab",
			Title:  fmt.Sprintf("%s, %d pairs (%s)", strings.TrimSuffix(filepath.Base(path), ".jsonl"), pairs, path),
			Header: []string{"metric", "better", "parent_median", "change_median", "ratio_median", "ratio_ci95", "change_won"},
		}
		for _, m := range decl.EndToEnd {
			var pv, cv, ratios []float64
			won := 0
			for k := 0; k < pairs; k++ {
				p, c := parent[k].Result.Metrics[m.Name].Value, change[k].Result.Metrics[m.Name].Value
				pv, cv = append(pv, p), append(cv, c)
				if p != 0 {
					ratios = append(ratios, c/p)
				}
				if (m.Better == "lower" && c < p) || (m.Better == "higher" && c > p) {
					won++
				}
			}
			r.Rows = append(r.Rows, []string{m.Name, m.Better, fmtMedian(pv), fmtMedian(cv), fmtMedian(ratios),
				fmtCI(ratios), fmt.Sprintf("%d/%d", won, pairs)})
		}
		for _, side := range []string{"parent", "change"} {
			r.Notes = append(r.Notes, abSideNote(side, sides[side][:pairs]))
		}
		results = append(results, r)
	}
	return results, nil
}

// readABRuns reads one workload file, grouping its runs by side in file order.
func readABRuns(path string) (map[string][]abRun, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sides := map[string][]abRun{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24) // a context line carries every query's medians
	for line := 1; sc.Scan(); line++ {
		var run abRun
		if err := json.Unmarshal(sc.Bytes(), &run); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		sides[run.Side] = append(sides[run.Side], run)
	}
	return sides, sc.Err()
}

// abSideNote states what a side's runs were: commits, cores, correctness.
func abSideNote(side string, runs []abRun) string {
	commits, cores := map[string]bool{}, map[string]bool{}
	incorrect, failed := 0, 0
	for _, run := range runs {
		commits[run.Context.Host.Commit] = true
		cores[fmt.Sprintf("%d cores (GOMAXPROCS %d)", run.Context.Host.Cores, run.Context.Host.GOMAXPROCS)] = true
		if !run.Result.Correct {
			incorrect++
		}
		failed += run.Result.Failed
	}
	return fmt.Sprintf("%s: commit %s, %s, %d runs not correct, %d failed operations",
		side, joinKeys(commits), joinKeys(cores), incorrect, failed)
}

func joinKeys(m map[string]bool) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return strings.Join(keys, " / ")
}

func fmtMedian(xs []float64) string {
	if len(xs) == 0 {
		return "-"
	}
	return fmt.Sprintf("%.4g", bootstrap.Quantile(xs, 0.5))
}

// ciTrials and ciSeed fix the resampling of fmtCI, so a report is
// reproducible from its .jsonl files.
const (
	ciTrials = 1000
	ciSeed   = 7
)

// fmtCI is a 95% bootstrap interval on the median of ratios: trial b weighs
// pair k by a Poisson(1) draw (the engine's own resampling scheme,
// bootstrap.PoissonSource, pair k as tuple k) and takes the median of the
// weighted multiset; the interval is the 2.5% and 97.5% quantiles of the
// trials' medians (bootstrap.Summarize). A trial that draws no pair is
// skipped. With few pairs the interval is coarse.
func fmtCI(ratios []float64) string {
	src := bootstrap.NewPoissonSource(ciSeed, ciTrials)
	w := make([][]float64, len(ratios))
	for k := range ratios {
		w[k] = src.WeightsInto(uint64(k), make([]float64, ciTrials))
	}
	var medians, sample []float64
	for b := 0; b < ciTrials; b++ {
		sample = sample[:0]
		for k, r := range ratios {
			for c := 0; c < int(w[k][b]); c++ {
				sample = append(sample, r)
			}
		}
		if len(sample) > 0 {
			medians = append(medians, bootstrap.Quantile(sample, 0.5))
		}
	}
	if len(medians) == 0 {
		return "-"
	}
	e := bootstrap.Summarize(0, medians)
	return fmt.Sprintf("[%.4g, %.4g]", e.CILo, e.CIHi)
}
