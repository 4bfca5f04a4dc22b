package core

import (
	"testing"
)

// TestTrajectoryGolden holds every golden case at Trials {0, 25} to its word
// in testdata/trajectory.golden at the four corners Workers {1, 4} ×
// NoVectorize {false, true}, with the parallel cutover pinned to one row.
// One subtest level per case and one per corner, so that
// -run 'TestTrajectoryGolden/.*/w1_' selects a schedule. TestExecutionLattice
// checks the same words in more cells (the adaptive case among them) and is
// the one test that rewrites the file under -update.
func TestTrajectoryGolden(t *testing.T) {
	if *updateGolden {
		t.Skip("TestExecutionLattice rewrites the golden file")
	}
	want := readGolden(t, trajectoryGoldenPath)
	corners := []struct {
		name string
		cfg  execConfig
	}{
		{"w1_rows", execConfig{workers: 1, novec: true}}, {"w1_columns", execConfig{workers: 1}},
		{"w4_rows", execConfig{workers: 4, novec: true}}, {"w4_columns", execConfig{workers: 4}},
	}
	for _, gc := range goldenCases(t) {
		if gc.adaptive {
			continue
		}
		for _, trials := range []int{0, 25} {
			key, c := gc.at(t, trials)
			t.Run(c.name, func(t *testing.T) {
				ref, ok := want[key]
				if !ok {
					t.Fatalf("no golden entry for %s", key)
				}
				for _, corner := range corners {
					t.Run(corner.name, func(t *testing.T) {
						if d := digestUpdates(t, runAt(t, c, corner.cfg).us); d != ref {
							t.Errorf("trajectory digest %016x, golden %016x", d, ref)
						}
					})
				}
			})
		}
	}
}
