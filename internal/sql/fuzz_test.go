package sql_test

import (
	"testing"

	"iolap/internal/sql"
	"iolap/internal/workload"
)

// FuzzPlanQuery feeds arbitrary text through sql.PlanQuery — the engine's one
// entry from SQL text to a plan, and the only surface that parses input a
// remote session supplies. Any input may be rejected with an error; none may
// panic or hang. A plan that does come back must describe itself. The seeds
// are the 22 workload queries (the ones testdata/plans pins), each against
// its own workload's catalog and registries.
func FuzzPlanQuery(f *testing.F) {
	wls := []*workload.Workload{
		workload.TPCH(workload.TPCHScale{Fact: 40, Seed: 1}),
		workload.Conviva(workload.ConvivaScale{Sessions: 40, Seed: 1}),
	}
	seeds := 0
	for wi, w := range wls {
		for _, q := range w.Queries {
			f.Add(q.SQL, q.Stream, wi == 1)
			seeds++
		}
	}
	if seeds != 22 {
		f.Fatalf("seeded %d workload queries, want 22", seeds)
	}
	f.Fuzz(func(t *testing.T, text, stream string, conviva bool) {
		w := wls[0]
		if conviva {
			w = wls[1]
		}
		node, pp, err := sql.PlanQuery(text, w.Catalog(stream), w.Funcs, w.Aggs)
		if err != nil {
			return
		}
		if node == nil || pp == nil {
			t.Fatalf("PlanQuery(%q) returned no error and no plan", text)
		}
		if len(node.Schema()) == 0 {
			t.Fatalf("PlanQuery(%q): plan with an empty schema", text)
		}
	})
}
