package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// fileMetric is one metric in a results file; Spread is the interquartile
// range over the median of the per-rep values (end-to-end metrics only).
type fileMetric struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	Spread float64 `json:"spread,omitempty"`
}

// fileWorkload is one workload's untraced and traced runs.
type fileWorkload struct {
	Workload  string                `json:"workload"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Failures  []string              `json:"failures,omitempty"`
	Reps      int                   `json:"reps"`
	Samples   map[string]int        `json:"samples"`
	EndToEnd  map[string]fileMetric `json:"end_to_end"`
	PerLayer  map[string]fileMetric `json:"per_layer"`
}

// resultsFile is what -all -out writes and -compare reads.
type resultsFile struct {
	Host      hostInfo       `json:"host"`
	Seed      int64          `json:"seed"`
	Seconds   float64        `json:"seconds"`
	Claim     *string        `json:"claim"` // always null: the benchmark reports, it claims no gain
	Workloads []fileWorkload `json:"workloads"`
}

// runAll runs every workload untraced, then traced, and writes one file.
func runAll(cfg config, host hostInfo, out string) error {
	file := resultsFile{Host: host, Seed: cfg.seed, Seconds: cfg.seconds}
	for _, sp := range specs {
		cfg.traced = false
		plain, err := runWorkload(sp, cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", sp.name, err)
		}
		cfg.traced = true
		if out != "" {
			cfg.traceOut = filepath.Join(cfg.dir, sp.name+".trace.json")
		}
		traced, err := runWorkload(sp, cfg)
		if err != nil {
			return fmt.Errorf("%s (traced): %w", sp.name, err)
		}
		fw := fileWorkload{Workload: sp.name, Reps: plain.Reps, Samples: plain.Samples,
			Attempted: plain.Attempted + traced.Attempted, Failed: plain.Failed + traced.Failed,
			Failures: append(plain.Failures, traced.Failures...),
			EndToEnd: map[string]fileMetric{}, PerLayer: map[string]fileMetric{}}
		for _, d := range endToEnd {
			fw.EndToEnd[d.name] = fileMetric{Value: plain.EndToEnd[d.name], Unit: d.unit, Spread: plain.Spread[d.name]}
		}
		for _, d := range perLayer {
			fw.PerLayer[d.name] = fileMetric{Value: traced.Layers[d.name], Unit: d.unit}
		}
		file.Workloads = append(file.Workloads, fw)
		fmt.Fprintf(os.Stderr, "bench: %s: %d ops, %d failed, %d reps, total_s %.4f, overhead_x %.2f\n",
			sp.name, fw.Attempted, fw.Failed, fw.Reps, plain.EndToEnd["total_s"], plain.EndToEnd["overhead_x"])
	}
	data, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if out == "" {
		_, err = os.Stdout.Write(data)
		return err
	}
	if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
		return err
	}
	return os.WriteFile(out, data, 0o644)
}

// exactLayer reports whether a per-layer metric is a deterministic count:
// equal seeds must reproduce it exactly.
func exactLayer(d layerDef) bool {
	switch d.unit {
	case "rows", "count", "batches":
		return strings.HasPrefix(d.name, "core.")
	}
	switch d.name {
	case "core.recompute_ratio", "delta.join_state_peak_mb", "core.other_state_peak_mb",
		"cluster.shuffle_mb", "cluster.broadcast_mb":
		return true
	}
	return false
}

func readResults(path string) (*resultsFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultsFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// compareFiles prints, per workload and end-to-end metric, how much worse b
// is than a against the metric's bound, and returns the exit code: 1 when
// any metric is outside its bound (or, for equal seeds, an exact count
// differs). A metric whose per-rep spread exceeds its bound is reported as
// unresolved, not as unchanged. Files measured for different lengths or on
// different core counts are refused (exit code 2).
func compareFiles(pathA, pathB string, w io.Writer) int {
	a, err := readResults(pathA)
	if err != nil {
		fmt.Fprintln(w, "bench:", err)
		return 2
	}
	b, err := readResults(pathB)
	if err != nil {
		fmt.Fprintln(w, "bench:", err)
		return 2
	}
	if a.Seconds != b.Seconds || a.Host.Cores != b.Host.Cores || a.Host.GOMAXPROCS != b.Host.GOMAXPROCS {
		fmt.Fprintf(w, "bench: not comparable: %s ran %g s on %d cores (GOMAXPROCS %d), %s %g s on %d (%d)\n",
			pathA, a.Seconds, a.Host.Cores, a.Host.GOMAXPROCS, pathB, b.Seconds, b.Host.Cores, b.Host.GOMAXPROCS)
		return 2
	}
	byName := map[string]fileWorkload{}
	for _, fw := range b.Workloads {
		byName[fw.Workload] = fw
	}
	code := 0
	fmt.Fprintf(w, "%-13s %-17s %14s %14s %8s %6s  %s\n", "workload", "metric", "a", "b", "worse", "bound", "verdict")
	for _, wa := range a.Workloads {
		wb, ok := byName[wa.Workload]
		if !ok {
			fmt.Fprintf(w, "%-13s missing from %s\n", wa.Workload, pathB)
			code = 1
			continue
		}
		if wa.Failed+wb.Failed > 0 {
			fmt.Fprintf(w, "%-13s failed operations: a %d, b %d\n", wa.Workload, wa.Failed, wb.Failed)
			code = 1
		}
		for _, d := range endToEnd {
			ma, mb := wa.EndToEnd[d.name], wb.EndToEnd[d.name]
			worse := 0.0
			if ma.Value != 0 {
				worse = (mb.Value - ma.Value) / ma.Value
				if d.better == "higher" {
					worse = -worse
				}
			}
			verdict := "ok"
			switch {
			case ma.Spread > d.bound || mb.Spread > d.bound:
				verdict = fmt.Sprintf("unresolved (spread a %.1f%%, b %.1f%%)", 100*ma.Spread, 100*mb.Spread)
			case worse > d.bound:
				verdict = "REGRESSION"
				code = 1
			}
			fmt.Fprintf(w, "%-13s %-17s %14.6g %14.6g %+7.1f%% %5.0f%%  %s\n",
				wa.Workload, d.name, ma.Value, mb.Value, 100*worse, 100*d.bound, verdict)
		}
		if a.Seed != b.Seed {
			continue
		}
		for _, d := range perLayer {
			if va, vb := wa.PerLayer[d.name].Value, wb.PerLayer[d.name].Value; exactLayer(d) && va != vb {
				fmt.Fprintf(w, "%-13s %-17s %14.6g %14.6g  exact count differs at equal seeds\n", wa.Workload, d.name, va, vb)
				code = 1
			}
		}
	}
	return code
}
