package core

import (
	"os"
	"strings"
	"testing"

	"iolap/internal/storage"
)

// The spill policy promises that Options.StateBudgetBytes changes only WHERE
// join state lives, never WHAT the engine computes: every update must stay
// bit-identical to the in-memory sequential oracle at any budget, including a
// zero-byte budget that forces the entire join state through spill files.
// This suite sweeps budget × worker count over the equivalence fixtures
// (including the skewed-group and failure-recovery shapes) and separately
// proves the engine recovers from spill-file faults via the Section 5.1
// snapshot/replay path.

// scrubSpillMetrics copies updates with the placement-dependent fields zeroed
// so runs at different budgets can be compared with assertUpdatesIdentical:
// a spilling run necessarily reports different resident/spill bytes than the
// in-memory oracle, and those three fields are exactly the ones a budget is
// allowed to change.
func scrubSpillMetrics(us []*Update) []*Update {
	out := make([]*Update, len(us))
	for i, u := range us {
		c := *u
		c.JoinStateResidentBytes = 0
		c.SpillBytesWritten = 0
		c.SpillBytesRead = 0
		out[i] = &c
	}
	return out
}

// TestBudgetEquivalenceSweep is the satellite-2 matrix: StateBudgetBytes in
// {zero-byte, tiny, unbounded} × Workers in {1, 2, 8}, each cell compared
// against the Workers=1 in-memory oracle. Within a budget, worker count must
// not even change the spill metrics — eviction order and run layout are
// deterministic — so same-budget pairs are compared unscrubbed.
func TestBudgetEquivalenceSweep(t *testing.T) {
	budgets := []struct {
		name   string
		budget int64
	}{
		{"full_spill", -1},     // zero-byte budget: all join state on disk
		{"tiny", 32 << 10},     // partial spill under pressure
		{"unbounded", 1 << 40}, // policy active, nothing ever evicted
	}
	cases := []struct {
		name      string
		query     string
		n         int
		dbSeed    int64
		opts      Options
		sorted    bool
		skewed    bool
		wantSpill bool // fixture has join state, so full_spill must hit disk
	}{
		{"flat_group_by", theoremQuery(t, "flat_group_by"), 240, 11,
			Options{Mode: ModeIOLAP, Batches: 6, Trials: 25, Seed: 3}, false, false, false},
		{"join_dim_group", theoremQuery(t, "join_dim_group"), 240, 11,
			Options{Mode: ModeIOLAP, Batches: 6, Trials: 25, Seed: 3}, false, false, true},
		{"sbi", sbiQuery, 240, 11,
			Options{Mode: ModeIOLAP, Batches: 6, Trials: 25, Seed: 3}, false, false, true},
		{"skewed_group/join", theoremQuery(t, "join_dim_group"), 240, 11,
			Options{Mode: ModeIOLAP, Batches: 6, Trials: 25, Seed: 3}, false, true, true},
		// Adversarial order + zero slack: variation-range failures fire, so
		// snapshot restore and merged-delta replay run over spilled state.
		{"recovery", sbiQuery, 200, 7,
			Options{Mode: ModeIOLAP, Batches: 10, Trials: 20, Slack: 0, Seed: 4}, true, false, true},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			oracleOpts := c.opts
			oracleOpts.Workers, oracleOpts.ParThreshold = 1, 1
			oracle, oracleEng := runEngineUpdates(t, c.query, c.n, c.dbSeed, oracleOpts, c.sorted, c.skewed)
			defer oracleEng.Close()
			oracleScrub := scrubSpillMetrics(oracle)
			for _, b := range budgets {
				b := b
				t.Run(b.name, func(t *testing.T) {
					var runs [][]*Update
					var engs []*Engine
					for _, w := range []int{1, 2, 8} {
						o := c.opts
						o.Workers, o.ParThreshold = w, 1
						o.StateBudgetBytes = b.budget
						o.SpillFS = storage.NewMemFS()
						us, eng := runEngineUpdates(t, c.query, c.n, c.dbSeed, o, c.sorted, c.skewed)
						defer eng.Close()
						// Budget changes placement, never results.
						assertUpdatesIdentical(t, oracleScrub, scrubSpillMetrics(us))
						runs = append(runs, us)
						engs = append(engs, eng)
					}
					// Same budget, different workers: everything must match,
					// spill metrics included.
					assertUpdatesIdentical(t, runs[0], runs[1])
					assertUpdatesIdentical(t, runs[0], runs[2])
					for i, eng := range engs {
						if eng.TotalRecoveries() != engs[0].TotalRecoveries() {
							t.Errorf("TotalRecoveries diverges across workers: %d vs %d",
								engs[0].TotalRecoveries(), eng.TotalRecoveries())
						}
						if c.wantSpill && b.budget < 0 && eng.TotalSpillBytesWritten() == 0 {
							t.Errorf("run %d: full-spill budget never wrote a spill file; the case tests nothing", i)
						}
						if !c.wantSpill && eng.TotalSpillBytesWritten() != 0 {
							t.Errorf("run %d: fixture without join state spilled %d bytes",
								i, eng.TotalSpillBytesWritten())
						}
					}
					if strings.HasPrefix(c.name, "recovery") && engs[0].TotalRecoveries() == 0 {
						t.Fatal("recovery fixture no longer triggers recoveries; the case tests nothing")
					}
				})
			}
		})
	}
}

// TestSpillTempDirLifecycle exercises the default OSFS path: with no SpillFS
// injected the engine creates its own temp directory, writes real spill
// files into it, and Close removes the whole thing. Results must still match
// the in-memory run bit for bit.
func TestSpillTempDirLifecycle(t *testing.T) {
	query := theoremQuery(t, "join_dim_group")
	opts := Options{Mode: ModeIOLAP, Batches: 4, Trials: 10, Seed: 3, Workers: 2, ParThreshold: 1}

	memOpts := opts
	want, memEng := runEngineUpdates(t, query, 240, 11, memOpts, false, false)
	defer memEng.Close()

	diskOpts := opts
	diskOpts.StateBudgetBytes = -1
	got, eng := runEngineUpdates(t, query, 240, 11, diskOpts, false, false)
	assertUpdatesIdentical(t, scrubSpillMetrics(want), scrubSpillMetrics(got))

	dir := eng.spillDirOwned
	if dir == "" {
		t.Fatal("engine with a budget and no SpillFS must own a temp spill dir")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("read spill dir: %v", err)
	}
	if len(entries) == 0 {
		t.Fatal("no spill files written to the owned dir")
	}
	if eng.TotalSpillBytesWritten() == 0 {
		t.Fatal("TotalSpillBytesWritten = 0 on a full-spill run")
	}
	if err := eng.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Fatalf("spill dir %s survives Close (stat err %v)", dir, err)
	}
	if err := eng.Close(); err != nil {
		t.Fatalf("second Close must be a no-op: %v", err)
	}
}

// TestSpillFaultEngineRecovery is the satellite-1 harness at the engine
// level: a write error, a torn write, or a failed fsync in the middle of a
// spill must surface as a recovery event — snapshot restore plus merged-delta
// replay — after which the run completes with answers bit-identical to the
// fault-free in-memory oracle.
func TestSpillFaultEngineRecovery(t *testing.T) {
	query := theoremQuery(t, "join_dim_group")
	base := Options{Mode: ModeIOLAP, Batches: 6, Trials: 25, Seed: 3,
		Workers: 2, ParThreshold: 1, StateBudgetBytes: -1}

	oracleOpts := base
	oracleOpts.StateBudgetBytes = 0 // in-memory, no spill machinery at all
	oracle, oracleEng := runEngineUpdates(t, query, 240, 11, oracleOpts, false, false)
	defer oracleEng.Close()

	// A clean spill run counts the deterministic write/sync schedule the
	// fault scenarios then aim into the middle of.
	clean := storage.NewFaultFS(storage.NewMemFS())
	cleanOpts := base
	cleanOpts.SpillFS = clean
	cleanUs, cleanEng := runEngineUpdates(t, query, 240, 11, cleanOpts, false, false)
	defer cleanEng.Close()
	assertResultsIdentical(t, oracle, cleanUs)
	if cleanEng.TotalRecoveries() != 0 {
		t.Fatalf("clean spill run recovered %d times", cleanEng.TotalRecoveries())
	}
	writes, syncs := clean.Ops()
	if writes == 0 || syncs == 0 {
		t.Fatalf("fixture never spilled (writes %d, syncs %d)", writes, syncs)
	}

	scenarios := []struct {
		name string
		arm  func(fs *storage.FaultFS)
	}{
		{"write_error", func(fs *storage.FaultFS) { fs.FailWriteAt(max(1, writes/2), false) }},
		{"short_write", func(fs *storage.FaultFS) { fs.FailWriteAt(max(1, writes/2), true) }},
		{"sync_error", func(fs *storage.FaultFS) { fs.FailSyncAt(max(1, syncs/2)) }},
	}
	for _, sc := range scenarios {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			ffs := storage.NewFaultFS(storage.NewMemFS())
			sc.arm(ffs)
			o := base
			o.SpillFS = ffs
			us, eng := runEngineUpdates(t, query, 240, 11, o, false, false)
			defer eng.Close()
			if eng.TotalRecoveries() == 0 {
				t.Fatal("injected spill fault triggered no recovery; the scenario tests nothing")
			}
			recovered := 0
			for _, u := range us {
				recovered += u.Recoveries
			}
			if recovered != eng.TotalRecoveries() {
				t.Errorf("per-update Recoveries sum %d != TotalRecoveries %d", recovered, eng.TotalRecoveries())
			}
			// The answer is untouched: replay rebuilds the exact state.
			assertResultsIdentical(t, oracle, us)
		})
	}
}
