package iolap

import (
	"os"
	"path/filepath"
	"testing"
)

// TestWorkloadPlanGoldens pins the `-plan` text of every built-in workload
// query to testdata/plans. Q5's plan is the one the planner's star rule
// reorders (its shape is also checked by TestQ5JoinsFactTableFirst in
// internal/workload).
func TestWorkloadPlanGoldens(t *testing.T) {
	tpch, tq := NewTPCHSession(300, 42)
	conviva, cq := NewConvivaSession(300, 42)
	seen := 0
	for _, w := range []struct {
		session *Session
		queries []BenchQuery
	}{{tpch, tq}, {conviva, cq}} {
		for _, q := range w.queries {
			want, err := os.ReadFile(filepath.Join("testdata", "plans", q.Name+".txt"))
			if err != nil {
				t.Fatal(err)
			}
			cur, err := w.session.Query(q.SQL, &Options{Stream: q.Stream, Batches: 1, Trials: 2})
			if err != nil {
				t.Fatalf("%s: %v", q.Name, err)
			}
			if got := cur.Plan(); got != string(want) {
				t.Errorf("%s: plan changed\nwant:\n%s\ngot:\n%s", q.Name, want, got)
			}
			cur.Close()
			seen++
		}
	}
	if seen != 22 {
		t.Errorf("checked %d plans, want 22", seen)
	}
}
