package cluster

import (
	"testing"
	"time"
)

// TestCostSnapshot: the snapshot names every class with the model's current
// estimate, and a nil model is safe.
func TestCostSnapshot(t *testing.T) {
	m := NewCostModel(0)
	m.Observe(CostSelect, 10_000, 5*time.Millisecond, 1)
	snap := m.Snapshot()
	if len(snap) != int(numOpClasses) {
		t.Fatalf("snapshot has %d classes, want %d", len(snap), numOpClasses)
	}
	for c := OpClass(0); c < numOpClasses; c++ {
		if got, want := snap[c.String()], m.perRowNs[c]; got != want {
			t.Errorf("%v: snapshot %v, want %v", c, got, want)
		}
	}
	var nilModel *CostModel
	if nilModel.Snapshot() != nil {
		t.Error("nil model snapshot should be nil")
	}
}
