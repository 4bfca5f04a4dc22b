package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"testing"

	"iolap/internal/core"
)

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestBenchmarkFileMatchesProgram holds BENCHMARK.json against the metric
// and workload tables compiled into the program: same names in the same
// order, same units, directions and bounds.
func TestBenchmarkFileMatchesProgram(t *testing.T) {
	bf := readBenchmarkFile(t)
	if len(bf.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json has %d workloads, program has %d", len(bf.Workloads), len(specs))
	}
	for i, w := range bf.Workloads {
		if w.Name != specs[i].name || w.Why != specs[i].why {
			t.Errorf("workload %d: file %q / program %q (or their why differs)", i, w.Name, specs[i].name)
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("end_to_end: file has %d metrics, program has %d", len(bf.EndToEnd), len(endToEnd))
	}
	for i, m := range bf.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end_to_end %d: file %+v, program %+v", i, m, d)
		}
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("per_layer: file has %d metrics, program has %d", len(bf.PerLayer), len(perLayer))
	}
	if len(bf.PerLayer) > 128 {
		t.Errorf("per_layer has %d metrics, the contract allows 128", len(bf.PerLayer))
	}
	for i, m := range bf.PerLayer {
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer %d: file %+v, program %s %s %s", i, m, d.name, d.unit, d.better)
		}
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// metricKeys returns the keys of the "metrics" object of a report line as
// they appear in the raw JSON, duplicates included.
func metricKeys(t *testing.T, line []byte) []string {
	t.Helper()
	var raw struct {
		Metrics json.RawMessage `json:"metrics"`
	}
	if err := json.Unmarshal(line, &raw); err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw.Metrics))
	var keys []string
	depth := 0
	for {
		tok, err := dec.Token()
		if err != nil {
			break
		}
		switch v := tok.(type) {
		case json.Delim:
			if v == '{' {
				depth++
			} else if v == '}' {
				depth--
			}
		case string:
			// At depth 1 strings alternate key, value-object; the values are
			// objects, so every depth-1 string is a key.
			if depth == 1 {
				keys = append(keys, v)
			}
		}
	}
	return keys
}

// checkReport asserts the contract's result line: exactly the four keys,
// and every wanted metric exactly once with its unit.
func checkReport(t *testing.T, rep report, want map[string]string) {
	t.Helper()
	line, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(line, &top); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := top[k]; !ok {
			t.Errorf("result line lacks %q", k)
		}
	}
	if len(top) != 4 {
		t.Errorf("result line has %d keys, want 4", len(top))
	}
	seen := map[string]int{}
	for _, k := range metricKeys(t, line) {
		seen[k]++
		if !nameRE.MatchString(k) {
			t.Errorf("metric name %q is outside [A-Za-z0-9_.-]", k)
		}
	}
	for name, unit := range want {
		if seen[name] != 1 {
			t.Errorf("metric %s appears %d times, want once", name, seen[name])
		}
		if got := rep.Metrics[name].Unit; got != unit || !unitRE.MatchString(got) {
			t.Errorf("metric %s has unit %q, want %q", name, got, unit)
		}
	}
	if len(seen) != len(want) {
		t.Errorf("result line has %d metrics, want %d", len(seen), len(want))
	}
}

// checkSpans asserts the trace's structure: every child lies inside its
// parent and carries its query id, siblings on one thread do not overlap,
// and children plus self time add up to the parent within 1%.
func checkSpans(t *testing.T, tr *tracer) {
	t.Helper()
	if len(tr.spans) == 0 {
		t.Fatal("traced run recorded no spans")
	}
	children := map[int][]span{}
	for _, s := range tr.spans {
		if s.End < s.Start {
			t.Errorf("span %s %s ends before it starts", s.Name, s.ID)
		}
		if s.Parent < 0 {
			continue
		}
		p := tr.spans[s.Parent]
		if s.ID != p.ID {
			t.Errorf("span %s has id %s, its parent %s has %s", s.Name, s.ID, p.Name, p.ID)
		}
		if s.Start < p.Start || s.End > p.End {
			t.Errorf("span %s [%v,%v] leaves its parent %s [%v,%v]", s.Name, s.Start, s.End, p.Name, p.Start, p.End)
		}
		children[s.Parent] = append(children[s.Parent], s)
	}
	self := tr.selfTimes()
	for i, kids := range children {
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		sum := self[i]
		for k, c := range kids {
			sum += c.dur()
			if k > 0 && c.Tid == kids[k-1].Tid && c.Start < kids[k-1].End {
				t.Errorf("spans %s and %s of %s overlap", kids[k-1].Name, c.Name, c.ID)
			}
		}
		p := tr.spans[i]
		if self[i] < 0 {
			t.Errorf("span %s %s has negative self time %v", p.Name, p.ID, self[i])
		}
		if diff := float64(sum - p.dur()); diff > 0.01*float64(p.dur()) || -diff > 0.01*float64(p.dur()) {
			t.Errorf("span %s %s: children + self = %v, duration %v", p.Name, p.ID, sum, p.dur())
		}
	}
}

// TestSmoke runs every workload at about 2k fact rows with one timed rep,
// untraced and traced, and checks the result lines, the operation counts
// and the trace.
func TestSmoke(t *testing.T) {
	wantE2E := map[string]string{}
	for _, d := range endToEnd {
		wantE2E[d.name] = d.unit
	}
	wantLayer := map[string]string{}
	for _, d := range perLayer {
		wantLayer[d.name] = d.unit
	}
	for _, sp := range specs {
		t.Run(sp.name, func(t *testing.T) {
			cfg := config{seed: 42, seconds: 0.01, scale: 0.02, workers: 2, dir: t.TempDir(), minReps: 1, probeTuples: 1 << 12}
			plain, err := runWorkload(sp, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if plain.Failed != 0 || plain.Attempted == 0 {
				t.Fatalf("untraced: %d of %d operations failed: %v", plain.Failed, plain.Attempted, plain.Failures)
			}
			checkReport(t, plain.report(false), wantE2E)
			for _, d := range endToEnd {
				if v := plain.EndToEnd[d.name]; !(v > 0) {
					t.Errorf("end-to-end metric %s = %v, want > 0", d.name, v)
				}
			}

			cfg.traced = true
			cfg.traceOut = filepath.Join(cfg.dir, "trace.json")
			traced, err := runWorkload(sp, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if traced.Failed != 0 {
				t.Fatalf("traced: %d of %d operations failed: %v", traced.Failed, traced.Attempted, traced.Failures)
			}
			checkReport(t, traced.report(true), wantLayer)
			checkSpans(t, traced.trace)
			data, err := os.ReadFile(cfg.traceOut)
			if err != nil {
				t.Fatal(err)
			}
			var chrome struct {
				TraceEvents []map[string]interface{} `json:"traceEvents"`
			}
			if err := json.Unmarshal(data, &chrome); err != nil || len(chrome.TraceEvents) != len(traced.trace.spans) {
				t.Errorf("trace file: %v, %d events for %d spans", err, len(chrome.TraceEvents), len(traced.trace.spans))
			}
		})
	}
}

// TestQueryErrorIsAFailedOperation breaks one query after set-up: the rep
// must count it as failed and carry on, and the run must still produce the
// result line, with correct false.
func TestQueryErrorIsAFailedOperation(t *testing.T) {
	sp, _ := findSpec("flat_noboot")
	cfg := config{seed: 42, scale: 0.02, workers: 2, dir: t.TempDir()}
	ds, err := setup(sp, cfg.seed, cfg.scale, cfg.dir)
	if err != nil {
		t.Fatal(err)
	}
	ds.queries[1].sql = "SELECT FROM"
	b := &batchRunner{sp: sp, cfg: cfg, ds: ds, ck: &checker{}}
	qrs, complete := b.rep(core.Options{Workers: 2, Batches: sp.batches, Trials: sp.trials}, "r0", 0, true, nil, false)
	if complete || len(qrs) != len(ds.queries)-1 {
		t.Fatalf("complete %v with %d of %d samples, want an incomplete rep missing one", complete, len(qrs), len(ds.queries))
	}
	out := &outcome{Workload: sp.name}
	out.fill(ds, nil, nil, b.ck)
	rep := out.report(false)
	if rep.Correct || rep.Failed != 1 || rep.Attempted != len(ds.queries) {
		t.Errorf("report %+v, want correct false, 1 failed of %d", rep, len(ds.queries))
	}
	if len(rep.Metrics) != len(endToEnd) {
		t.Errorf("report has %d metrics, want %d", len(rep.Metrics), len(endToEnd))
	}
}

// TestCompare checks -compare's verdicts on hand-made result files.
func TestCompare(t *testing.T) {
	seconds := 12.0
	write := func(name string, total, spread float64) string {
		fw := fileWorkload{Workload: "flat_boot", EndToEnd: map[string]fileMetric{}, PerLayer: map[string]fileMetric{}}
		for _, d := range endToEnd {
			fw.EndToEnd[d.name] = fileMetric{Value: 1, Unit: d.unit}
		}
		fw.EndToEnd["total_s"] = fileMetric{Value: total, Unit: "s", Spread: spread}
		data, _ := json.Marshal(resultsFile{Seed: 1, Seconds: seconds, Workloads: []fileWorkload{fw}})
		path := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("a.json", 1.0, 0.01)
	var out bytes.Buffer
	if code := compareFiles(base, write("same.json", 1.02, 0.01), &out); code != 0 {
		t.Errorf("2%% worse within a 10%% bound: exit %d\n%s", code, out.String())
	}
	out.Reset()
	if code := compareFiles(base, write("slow.json", 1.5, 0.01), &out); code != 1 || !bytes.Contains(out.Bytes(), []byte("REGRESSION")) {
		t.Errorf("50%% worse: exit %d\n%s", code, out.String())
	}
	out.Reset()
	if code := compareFiles(base, write("noisy.json", 1.5, 0.9), &out); code != 0 || !bytes.Contains(out.Bytes(), []byte("unresolved")) {
		t.Errorf("spread above the bound must read unresolved: exit %d\n%s", code, out.String())
	}
	out.Reset()
	seconds = 3
	if code := compareFiles(base, write("short.json", 1.0, 0.01), &out); code != 2 {
		t.Errorf("files measured for different lengths must be refused: exit %d\n%s", code, out.String())
	}
}
