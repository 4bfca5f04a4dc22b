package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestABReport: runs pair in file order per side, ratios are change/parent,
// a pair is won in the metric's own direction, and an unpaired run is left out.
// With three pairs the bootstrap interval on the median ratio spans the
// smallest to the largest ratio.
func TestABReport(t *testing.T) {
	dir := t.TempDir()
	decl := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(decl, []byte(`{"end_to_end":[{"name":"overhead_x","better":"lower"},{"name":"tuples_per_s","better":"higher"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	run := func(side string, overhead, tps float64) string {
		return fmt.Sprintf(`{"side":%q,"context":{"host":{"cores":2,"gomaxprocs":2,"commit":"c-%s"}},`+
			`"result":{"correct":true,"failed":0,"metrics":{"overhead_x":{"value":%g},"tuples_per_s":{"value":%g}}}}`,
			side, side, overhead, tps)
	}
	lines := []string{
		run("parent", 6, 100), run("change", 3, 150),
		run("change", 2, 90), run("parent", 5, 100),
		run("parent", 8, 100), run("change", 2, 200),
		run("parent", 7, 100), // unpaired: left out
	}
	if err := os.WriteFile(filepath.Join(dir, "flat_boot.jsonl"), []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	results, err := abReport(dir, decl)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || !strings.HasPrefix(results[0].Title, "flat_boot, 3 pairs") {
		t.Fatalf("results %+v", results)
	}
	want := [][]string{
		{"overhead_x", "lower", "6", "2", "0.4", "[0.25, 0.5]", "3/3"},     // ratios 0.5, 0.4, 0.25
		{"tuples_per_s", "higher", "100", "150", "1.5", "[0.9, 2]", "2/3"}, // ratios 1.5, 0.9, 2
	}
	if len(results[0].Rows) != len(want) {
		t.Fatalf("rows %v, want %v", results[0].Rows, want)
	}
	for i, row := range results[0].Rows {
		if strings.Join(row, " ") != strings.Join(want[i], " ") {
			t.Errorf("row %d = %v, want %v", i, row, want[i])
		}
	}
	if note := results[0].Notes[1]; !strings.Contains(note, "change: commit c-change, 2 cores (GOMAXPROCS 2), 0 runs not correct") {
		t.Errorf("change note %q", note)
	}
	if _, err := abReport(t.TempDir(), decl); err == nil {
		t.Error("a directory with no recorded runs must be an error")
	}
}

// TestRatioCI: the interval on the median ratio is reproducible, lies within
// the ratios, shrinks to a point when every pair agrees, tightens as
// agreeing pairs accumulate, and is "-" with no ratio.
func TestRatioCI(t *testing.T) {
	if got := fmtCI([]float64{1, 1, 1}); got != "[1, 1]" {
		t.Errorf("equal ratios: %s", got)
	}
	if got := fmtCI(nil); got != "-" {
		t.Errorf("no ratio: %s", got)
	}
	few := []float64{0.7, 0.72, 0.75, 0.69, 0.9}
	if a, b := fmtCI(few), fmtCI(few); a != b {
		t.Errorf("not reproducible: %s vs %s", a, b)
	}
	var lo, hi float64
	if _, err := fmt.Sscanf(fmtCI(few), "[%g, %g]", &lo, &hi); err != nil || lo < 0.69 || hi > 0.9 || lo > 0.72 || hi < 0.72 {
		t.Errorf("five pairs, median 0.72: interval [%g, %g] (%v)", lo, hi, err)
	}
	many := append(append([]float64(nil), few...), 0.71, 0.72, 0.73, 0.72, 0.71, 0.72, 0.73, 0.72, 0.71, 0.72)
	var lo2, hi2 float64
	if _, err := fmt.Sscanf(fmtCI(many), "[%g, %g]", &lo2, &hi2); err != nil || hi2-lo2 >= hi-lo {
		t.Errorf("fifteen pairs: interval [%g, %g] not tighter than five pairs' [%g, %g] (%v)", lo2, hi2, lo, hi, err)
	}
}
