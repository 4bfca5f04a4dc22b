package core

import (
	"fmt"
	"hash"
	"hash/fnv"
	"strings"
	"testing"

	"iolap/internal/cluster"
)

// recordingExchanger is a transport of one participant: it computes the whole
// site as a single span, applies its own payload, and folds what crossed the
// seam — class, row count, payload bytes — into a running digest. MinRows 1
// ships every site that has a codec.
type recordingExchanger struct {
	seq   hash.Hash64
	sites int
}

func (x *recordingExchanger) Exchange(class cluster.OpClass, n int, compute func(lo, hi int) ([]byte, error), merge func(lo, hi int, payload []byte) error) error {
	p, err := compute(0, n)
	if err != nil {
		return err
	}
	ph := fnv.New64a()
	ph.Write(p)
	fmt.Fprintf(x.seq, "%v %d %016x\n", class, n, ph.Sum64())
	x.sites++
	return merge(0, n, p)
}

func (x *recordingExchanger) MinRows() int { return 1 }

func (x *recordingExchanger) WireStats() (shuffle, broadcast int64) { return 0, 0 }

const exchangeGoldenPath = "testdata/exchange.golden"

// TestExchangeSequenceGolden pins what every operator site hands the
// transport: for each golden case, the sequence of Exchange(class, n, …)
// calls of the whole run and the payload bytes of each, as one word. The
// words were generated at a commit that predates the site runner, so they
// hold the sequence a replica built from that commit expects (protoVersion
// 3, unchanged by 4: replicas in lockstep must agree on it call for call and byte for byte).
// Each case runs at Workers {1, 4} with the cutover pinned to one row — a
// replica's local fan-out must not show in its payloads — and must also land
// on the local trajectory of testdata/trajectory.golden.
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
					x := &recordingExchanger{seq: fnv.New64a()}
					opts := c.opts
					opts.Trials = trials
					if trials == 0 {
						opts.Trials = -1 // 0 selects the default B
					}
					opts.Workers, opts.ParThreshold, opts.Exchange = workers, 1, x
					traj := trajectoryDigest(t, c, opts)
					d := x.seq.Sum64()
					if *updateGolden && !seen {
						ref, seen = d, true
						got[key] = d
					}
					if d != ref {
						t.Errorf("workers=%d: exchange sequence %016x (%d sites), golden %016x", workers, d, x.sites, ref)
					}
					if x.sites == 0 {
						t.Errorf("workers=%d: no site reached the transport", workers)
					}
					if l, ok := local[key]; !ok || traj != l {
						t.Errorf("workers=%d: trajectory %016x under the transport, local golden %016x", workers, traj, l)
					}
				}
			})
		}
	}
	if *updateGolden {
		writeGolden(t, exchangeGoldenPath, got,
			"# Exchange sequences pinned by TestExchangeSequenceGolden: <case>/B<trials> <fnv64a over \"class n fnv64a(payload)\" lines, in call order>.\n"+
				"# Regenerate only with a protoVersion bump: go test ./internal/core -run TestExchangeSequenceGolden -update\n")
	}
}
