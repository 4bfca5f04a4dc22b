package core

import (
	"fmt"
	"hash/fnv"
	"strings"
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
// case runs at Workers {1, 4} with the cutover pinned to one row — the model
// counts what a partitioned run would ship, so the local fan-out must not
// show in it — and must also land on the trajectory of
// testdata/trajectory.golden.
func TestExchangeSequenceGolden(t *testing.T) {
	var want map[string]uint64
	if !*updateGolden {
		want = readGolden(t, exchangeGoldenPath)
	}
	local := readGolden(t, trajectoryGoldenPath)
	got := map[string]uint64{}
	for _, c := range goldenCases(t) {
		for _, trials := range []int{0, 25} {
			c, trials := c, trials
			key := fmt.Sprintf("%s/B%d", c.name, trials)
			ref, seen := want[key]
			t.Run(strings.ReplaceAll(key, "/", "."), func(t *testing.T) {
				if !*updateGolden && !seen {
					t.Fatalf("no golden entry for %s", key)
				}
				for _, workers := range []int{1, 4} {
					opts := c.opts
					opts.Trials = trials
					if trials == 0 {
						opts.Trials = -1 // 0 selects the default B
					}
					opts.Workers, opts.ParThreshold = workers, 1
					us := runGolden(t, c, opts)
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
