// Command bench is the repository's benchmark: six workloads over the
// online engine, each checked against the exact executor, reporting
// whole-query metrics (untraced) and per-layer metrics (traced) by name.
//
//	bench -workload flat_boot [-seed N] [-seconds S] [-trace 0|1]
//	bench -all -out bench/results/seed-a.json
//	bench -compare a.json b.json
//
// The last line of standard output of a -workload run is one JSON object
// {"correct", "attempted", "failed", "metrics"}; see README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
)

// hostInfo is recorded with every result.
type hostInfo struct {
	Cores      int    `json:"cores"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

// report is the last stdout line of a -workload run.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: flat_boot, flat_noboot, join_star, nested_unc, nested_tiny, serve_cohort")
		seed     = flag.Int64("seed", 42, "seed of the data generator and of the engine's bootstrap")
		seconds  = flag.Float64("seconds", runSeconds, "how long the timed reps measure")
		trace    = flag.Int("trace", 0, "1 = traced run: print the per-layer metrics instead of the end-to-end ones")
		traceOut = flag.String("trace-out", "", "traced run: write the spans here as Chrome trace-event JSON")
		all      = flag.Bool("all", false, "run every workload, untraced then traced")
		out      = flag.String("out", "", "with -all: write the full results here as JSON")
		compare  = flag.Bool("compare", false, "compare two -all result files given as arguments")
		workdir  = flag.String("workdir", filepath.Join(".bench_build", "tmp"), "directory for the .iol files set-up writes")
		commit   = flag.String("commit", "unknown", "commit id to record in the output")
		describe = flag.Bool("describe", false, "print BENCHMARK.json as the program's tables define it")
	)
	flag.Parse()

	if *describe {
		os.Stdout.Write(describeBenchmark())
		return
	}

	if *compare {
		if flag.NArg() != 2 {
			fatal("usage: bench -compare a.json b.json")
		}
		os.Exit(compareFiles(flag.Arg(0), flag.Arg(1), os.Stdout))
	}

	cores := runtime.NumCPU()
	workers := cores
	if workers > 4 {
		workers = 4
	}
	runtime.GOMAXPROCS(workers)
	host := hostInfo{Cores: cores, GOMAXPROCS: workers, GoVersion: runtime.Version(), Commit: *commit}
	cfg := config{seed: *seed, seconds: *seconds, scale: 1, workers: workers,
		dir: *workdir, traced: *trace != 0, traceOut: *traceOut, minReps: seedVariants, probeTuples: 1 << 16}

	switch {
	case *all:
		if cores < 2 {
			// Reference numbers from a host where the generator, the
			// consumer and the workers share one core would be noise.
			fatal("refusing to record reference results on a 1-core host")
		}
		if err := runAll(cfg, host, *out); err != nil {
			fatal(err.Error())
		}
	case *workload != "":
		sp, ok := findSpec(*workload)
		if !ok {
			fatal("unknown workload " + *workload)
		}
		if cores < 2 {
			fmt.Fprintln(os.Stderr, "bench: warning: 1-core host, timings include scheduler interleaving")
		}
		o, err := runWorkload(sp, cfg)
		if err != nil {
			fatal(err.Error())
		}
		printOutcome(o, host, cfg.traced)
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func runWorkload(sp spec, cfg config) (*outcome, error) {
	if sp.serve {
		return runServe(sp, cfg)
	}
	return runBatch(sp, cfg)
}

// printOutcome writes the run's context as one JSON line and the contract's
// result object as the last line.
func printOutcome(o *outcome, host hostInfo, traced bool) {
	enc := json.NewEncoder(os.Stdout)
	enc.Encode(map[string]interface{}{"host": host, "run": o, "spread": o.Spread})
	enc.Encode(o.report(traced))
}

func fatal(msg string) {
	fmt.Fprintln(os.Stderr, "bench:", msg)
	os.Exit(1)
}
