package core

import (
	"testing"

	"iolap/internal/cluster"
)

// TestEverySiteIsClocked pins the runner's clock: after a run, every cost
// class the plan has an operator of has moved off its cold-start prior — the
// harness reads "still the prior" as "no site of the class ran" — and under
// a fixed cutover (the model's test hook) none has.
func TestEverySiteIsClocked(t *testing.T) {
	classOf := map[string]cluster.OpClass{
		"scan": cluster.CostScan, "select": cluster.CostSelect, "project": cluster.CostProject,
		"join": cluster.CostJoinProbe, "aggregate": cluster.CostFold, "sink": cluster.CostSink,
	}
	prior := cluster.NewCostModel(0).Snapshot()
	shapes := map[string]bool{"flat_filter_agg": true, "join_dim_group": true, "sbi_nested_scalar/iolap": true}
	for _, c := range goldenCases(t) {
		if !shapes[c.name] {
			continue
		}
		delete(shapes, c.name)
		c := c
		t.Run(c.name, func(t *testing.T) {
			for _, fixed := range []int{0, 1} {
				opts := c.opts
				opts.Trials, opts.Workers, opts.ParThreshold = 25, 4, fixed
				eng, err := NewEngine(planGolden(t, c), goldenDB(c), opts)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := eng.Run(); err != nil {
					t.Fatal(err)
				}
				snap := eng.CostSnapshot()
				ran := map[string]bool{}
				for _, st := range eng.OpStats() {
					if class, ok := classOf[st.Kind]; ok {
						ran[class.String()] = true
					}
				}
				for _, class := range []string{"scan", "fold", "sink"} {
					if !ran[class] {
						t.Fatalf("plan has no %s site", class)
					}
				}
				for class, ns := range snap {
					switch {
					case fixed > 0 && ns != prior[class]:
						t.Errorf("cutover pinned: %s moved off its prior (%v, prior %v)", class, ns, prior[class])
					case fixed == 0 && ran[class] && ns == prior[class]:
						t.Errorf("%s ran but its estimate is still the prior %v", class, ns)
					case fixed == 0 && !ran[class] && ns != prior[class]:
						t.Errorf("%s has no operator in the plan but moved off its prior (%v)", class, ns)
					}
				}
			}
		})
	}
	if len(shapes) != 0 {
		t.Fatalf("golden cases missing: %v", shapes)
	}
}
