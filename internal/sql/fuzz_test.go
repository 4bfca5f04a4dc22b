package sql_test

import (
	"testing"

	"iolap/internal/exec"
	"iolap/internal/plan"
	"iolap/internal/sql"
	"iolap/internal/workload"
)

// FuzzPlanQuery feeds arbitrary text through sql.PlanQuery — the engine's one
// entry from SQL text to a plan, and the only surface that parses input a
// remote session supplies. Any input may be rejected with an error; none may
// panic or hang. A plan that does come back must describe itself, and
// exec.Run evaluates it over the workload's 40-row tables, so SQL text the
// planner accepts but the evaluator panics on fails the fuzz. The seeds are
// the 22 workload queries (the ones testdata/plans pins), each against its
// own workload's catalog and registries.
func FuzzPlanQuery(f *testing.F) {
	wls := []*workload.Workload{
		workload.TPCH(workload.TPCHScale{Fact: 40, Seed: 1}),
		workload.Conviva(workload.ConvivaScale{Sessions: 40, Seed: 1}),
	}
	dbs := []*exec.DB{wls[0].DB(), wls[1].DB()}
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
		w, db := wls[0], dbs[0]
		if conviva {
			w, db = wls[1], dbs[1]
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
		if rowEstimate(node, db) <= maxFuzzRows {
			// A UDF's panic comes back as an error; any other panic fails.
			exec.Run(node, db)
		}
	})
}

// maxFuzzRows caps the rows a fuzzed plan is estimated to produce for it to
// be run: a cross join of five tables at this scale is a million rows, too
// slow for the fuzzer's hang detector.
const maxFuzzRows = 1 << 16

// rowEstimate estimates the most rows an operator of the plan produces over
// db: a cross join multiplies its inputs, an equi-join keeps the larger,
// and every other operator adds its inputs.
func rowEstimate(n plan.Node, db *exec.DB) int {
	if s, ok := n.(*plan.Scan); ok {
		r, _ := db.Get(s.Table)
		return r.Len()
	}
	est := 0
	for i, c := range n.Children() {
		e := rowEstimate(c, db)
		switch j, ok := n.(*plan.Join); {
		case ok && i > 0 && len(j.LKeys) == 0:
			est *= e
		case ok:
			est = max(est, e)
		default:
			est += e
		}
		est = min(est, maxFuzzRows+1)
	}
	return est
}
