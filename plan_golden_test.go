package iolap

import (
	"os"
	"path/filepath"
	"testing"
)

// TestWorkloadPlanGoldens pins the `-plan` text of every built-in workload
// query except TPC-H Q5 to testdata/plans, captured before the planner's
// star rule went in: the rule reorders only a plan that would otherwise join
// two direct dimensions of the fact table to each other, and Q5 is the one
// workload query with such a join (its shape is checked by
// TestQ5JoinsFactTableFirst in internal/workload).
func TestWorkloadPlanGoldens(t *testing.T) {
	tpch, tq := NewTPCHSession(300, 42)
	conviva, cq := NewConvivaSession(300, 42)
	seen := 0
	for _, w := range []struct {
		session *Session
		queries []BenchQuery
	}{{tpch, tq}, {conviva, cq}} {
		for _, q := range w.queries {
			if q.Name == "Q5" {
				continue
			}
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
	if seen != 21 {
		t.Errorf("checked %d plans, want 21", seen)
	}
}
