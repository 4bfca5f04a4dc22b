// Command experiments regenerates the paper's evaluation artifacts (every
// table and figure of Section 8) at a configurable scale and prints the
// series; the output backs EXPERIMENTS.md.
//
//	experiments                       # run everything at default scale
//	experiments -exp fig8ab           # one experiment
//	experiments -tpch 20000 -conviva 20000 -batches 20 -trials 100
//	experiments -exp ab               # report the paired runs of `make ab`
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"iolap/internal/harness"
)

func main() {
	var (
		expID   = flag.String("exp", "", "experiment id (table1, fig7a, ... fig10ef); empty = all")
		tpch    = flag.Int("tpch", 0, "TPC-H fact rows (default harness value)")
		conviva = flag.Int("conviva", 0, "Conviva session rows")
		batches = flag.Int("batches", 0, "mini-batch count")
		trials  = flag.Int("trials", 0, "bootstrap trials")
		slack   = flag.Float64("slack", 0, "variation-range slack")
		seed    = flag.Uint64("seed", 42, "random seed")
		runs    = flag.Int("runs", 0, "repetitions for probabilistic metrics")
		list    = flag.Bool("list", false, "list experiments and exit")
		datDir  = flag.String("dat", "", "also write each series as a TSV file into this directory")
	)
	flag.Parse()
	if *list {
		for _, e := range harness.All() {
			fmt.Printf("%-10s %s\n", e.ID, e.Paper)
		}
		fmt.Printf("%-10s %s\n", "ab", "(tool) paired parent/change benchmark runs recorded by `make ab` under .ab/")
		return
	}
	if *expID == "ab" {
		results, err := abReport(".ab", "BENCHMARK.json")
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments: ab:", err)
			os.Exit(1)
		}
		for _, r := range results {
			r.Print(os.Stdout)
		}
		return
	}
	cfg := harness.Config{
		TPCHFact:        *tpch,
		ConvivaSessions: *conviva,
		Batches:         *batches,
		Trials:          *trials,
		Slack:           *slack,
		Seed:            *seed,
		Runs:            *runs,
	}.WithDefaults()

	exps := harness.All()
	if *expID != "" {
		e, ok := harness.Lookup(*expID)
		if !ok {
			fmt.Fprintf(os.Stderr, "experiments: unknown experiment %q (try -list)\n", *expID)
			os.Exit(1)
		}
		exps = []harness.Experiment{e}
	}
	if *datDir != "" {
		if err := os.MkdirAll(*datDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
	}
	for _, e := range exps {
		start := time.Now()
		results, err := e.Run(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", e.ID, err)
			os.Exit(1)
		}
		fmt.Printf("# %s — %s (took %s)\n\n", e.ID, e.Paper, time.Since(start).Round(time.Millisecond))
		for i, r := range results {
			r.Print(os.Stdout)
			if *datDir != "" {
				path := filepath.Join(*datDir, fmt.Sprintf("%s_%d.tsv", e.ID, i))
				if err := writeTSV(path, r); err != nil {
					fmt.Fprintln(os.Stderr, "experiments:", err)
					os.Exit(1)
				}
			}
		}
	}
}

// writeTSV dumps one series as a gnuplot/pandas-friendly TSV.
func writeTSV(path string, r *harness.Result) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	fmt.Fprintf(f, "# %s\n", r.Title)
	fmt.Fprintln(f, strings.Join(r.Header, "\t"))
	for _, row := range r.Rows {
		fmt.Fprintln(f, strings.Join(row, "\t"))
	}
	return nil
}
