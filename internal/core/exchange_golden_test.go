package core

import (
	"fmt"
	"hash/fnv"
	"testing"
)

const exchangeGoldenPath = "testdata/exchange.golden"

// exchangeSequence folds every batch's modeled exchange — the
// cluster.Metrics shuffle and broadcast bytes behind figures 9(c) and
// 10(d) — into one word, in batch order.
func exchangeSequence(us []*Update) uint64 {
	h := fnv.New64a()
	for _, u := range us {
		fmt.Fprintf(h, "%d %d %d\n", u.Batch, u.ShuffleBytes, u.BroadcastBytes)
	}
	return h.Sum64()
}

// TestExchangeSequenceGolden pins the modeled data shipped of every golden
// case: for each, the per-batch sequence of {ShuffleBytes, BroadcastBytes}
// as one word. TestLateJoinExchangeBytes spells out the late-join cases
// batch by batch; this file carries the same pin for the whole corpus. Each
// case runs at Workers {1, 4} with the cutover pinned to one row (the adaptive
// case keeps its learned one) — the model counts what a partitioned run would
// ship, so the local fan-out must not show in it — and must also land on the
// trajectory of testdata/trajectory.golden.
func TestExchangeSequenceGolden(t *testing.T) {
	var want map[string]uint64
	if !*updateGolden {
		want = readGolden(t, exchangeGoldenPath)
	}
	local := readGolden(t, trajectoryGoldenPath)
	got := map[string]uint64{}
	for _, gc := range goldenCases(t) {
		for _, trials := range []int{0, 25} {
			key, c := gc.at(t, trials)
			ref, seen := want[key]
			t.Run(c.name, func(t *testing.T) {
				if !*updateGolden && !seen {
					t.Fatalf("no golden entry for %s", key)
				}
				for _, workers := range []int{1, 4} {
					us := runAt(t, c, execConfig{workers: workers}).us
					d := exchangeSequence(us)
					if *updateGolden && !seen {
						ref, seen = d, true
						got[key] = d
					}
					if d != ref {
						t.Errorf("workers=%d: exchange sequence %016x, golden %016x", workers, d, ref)
					}
					if traj := digestUpdates(t, us); local[key] != traj {
						t.Errorf("workers=%d: trajectory %016x, golden %016x", workers, traj, local[key])
					}
				}
			})
		}
	}
	if *updateGolden {
		writeGolden(t, exchangeGoldenPath, got,
			"# Exchange sequences pinned by TestExchangeSequenceGolden: <case>/B<trials> <fnv64a over per-batch \"batch shuffle broadcast\" lines of the modeled exchange>.\n"+
				"# Regenerate only when the exchange model changes on purpose: go test ./internal/core -run TestExchangeSequenceGolden -update\n")
	}
}
