package core

import (
	"bufio"
	"encoding/binary"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"iolap/internal/agg"
	"iolap/internal/expr"
	"iolap/internal/plan"
	"iolap/internal/sql"
)

var updateGolden = flag.Bool("update", false, "regenerate testdata/trajectory.golden")

// goldenCase is one (query, fixture, engine options) whose whole trajectory
// is pinned in testdata/trajectory.golden.
type goldenCase struct {
	name           string
	query          string
	opts           Options
	n              int
	dbSeed         int64
	sorted, skewed bool
	udaf           bool // plan with the GEOMEAN test UDAF registered
	// wantRecovery marks fixtures that must trigger at least one recovery
	// when the bootstrap is on, or the case pins nothing about replay.
	wantRecovery bool
}

// lateJoinQueries filter above joins of the streamed sessions with the static
// cdns and tags (several rows per cdn), with the streamed side left (pending
// L), right (pending R: batch 1's ΔL ⋈ ΔR builds on the streamed rows), 1:n,
// and two joins deep.
var lateJoinQueries = []struct{ name, query string }{
	{"pending_l", `SELECT c.region, SUM(s.play_time) AS spt, COUNT(*) AS n FROM sessions s, cdns c
		WHERE s.cdn = c.cdn AND c.region <> 'europe' AND s.buffer_time > 20 GROUP BY c.region`},
	{"pending_r", `SELECT c.region, SUM(s.play_time) AS spt, COUNT(*) AS n FROM cdns c, sessions s
		WHERE c.cdn = s.cdn AND c.region <> 'us-west' AND s.buffer_time > 20 GROUP BY c.region`},
	{"one_to_many", `SELECT t.tag, AVG(s.play_time) AS apt, COUNT(*) AS n FROM sessions s, tags t
		WHERE s.cdn = t.cdn AND t.tag <> 'ads' AND s.buffer_time > 15 GROUP BY t.tag`},
	{"two_joins", `SELECT c.region, t.tag, SUM(s.play_time) AS spt FROM cdns c, sessions s, tags t
		WHERE c.cdn = s.cdn AND s.cdn = t.cdn AND t.tag <> 'video' AND s.buffer_time > 25
		GROUP BY c.region, t.tag`},
}

const aggOverAgg = `SELECT SUM(t.apt) AS s, VAR(t.apt) AS v, COUNT(*) AS n FROM
			(SELECT cdn, AVG(play_time) AS apt FROM sessions GROUP BY cdn) t`

func goldenCases(t *testing.T) []goldenCase {
	base := Options{Mode: ModeIOLAP, Batches: 6, Seed: 3}
	mode := func(m Mode) Options { o := base; o.Mode = m; return o }
	// The equivalence suites' "zero-slack" recovery fixture, options verbatim.
	zeroSlack := Options{Mode: ModeIOLAP, Batches: 10, Slack: 0, Seed: 4}
	cases := []goldenCase{
		// The TestVectorizeEquivalence corpus.
		{name: "flat_group_by", query: theoremQuery(t, "flat_group_by"), opts: base},
		{name: "flat_filter_agg", query: theoremQuery(t, "flat_filter_agg"), opts: base},
		{name: "join_dim_group", query: theoremQuery(t, "join_dim_group"), opts: base},
		{name: "union_all", query: theoremQuery(t, "union_all"), opts: base},
		{name: "case_expression", query: theoremQuery(t, "case_expression"), opts: base},
		{name: "skewed_group", query: theoremQuery(t, "flat_group_by"), opts: base, skewed: true},
		{name: "skewed_group/join", query: theoremQuery(t, "join_dim_group"), opts: base, skewed: true},
		{name: "recovery", query: sbiQuery, opts: zeroSlack, sorted: true, wantRecovery: true},
		{name: "skewed_group/recovery", query: sbiQuery, opts: zeroSlack, n: 200, dbSeed: 7,
			sorted: true, skewed: true, wantRecovery: true},
		// Every builtin kernel kind in one fold, COUNT(col) included.
		{name: "all_kinds", query: `SELECT cdn, COUNT(buffer_time) AS n, SUM(play_time) AS s, AVG(play_time) AS a,
			VAR(play_time) AS v, STDDEV(buffer_time) AS sd, MIN(buffer_time) AS mn, MAX(play_time) AS mx
			FROM sessions GROUP BY cdn`, opts: base},
		// Interface-path vectors: certain rows (Phase A) and pending rows
		// (Phase B scratch).
		{name: "count_distinct", query: `SELECT cdn, COUNT(DISTINCT play_time) AS d FROM sessions GROUP BY cdn`, opts: base},
		{name: "count_distinct/nested", query: `SELECT COUNT(DISTINCT play_time) AS d FROM sessions
			WHERE buffer_time > (SELECT AVG(buffer_time) FROM sessions)`, opts: base},
		{name: "udaf", query: `SELECT cdn, GEOMEAN(play_time) AS g FROM sessions GROUP BY cdn`, opts: base, udaf: true},
		{name: "udaf/nested", query: `SELECT GEOMEAN(play_time) AS g FROM sessions
			WHERE buffer_time > (SELECT AVG(buffer_time) FROM sessions)`, opts: base, udaf: true},
		// Aggregates over aggregate outputs: lineage rows, uncertain
		// arguments, per-replicate inputs (AddRep).
		{name: "agg_over_agg", query: aggOverAgg, opts: base},
		{name: "agg_over_agg/minmax", query: `SELECT MAX(t.apt) AS s, MIN(t.n) AS m FROM
			(SELECT cdn, AVG(play_time) AS apt, COUNT(*) AS n FROM sessions GROUP BY cdn) t`, opts: base},
		{name: "agg_over_agg/join", query: `SELECT c.region, AVG(t.apt) AS a FROM
			(SELECT cdn, AVG(play_time) AS apt FROM sessions GROUP BY cdn) t, cdns c
			WHERE t.cdn = c.cdn GROUP BY c.region`, opts: base},
	}
	// Result sets wide enough for the sink to materialise chunk-parallel:
	// certain rows with estimate columns, and tuple-uncertain rows.
	cases = append(cases,
		goldenCase{name: "wide_result", query: `SELECT session_id, COUNT(*) AS n, AVG(play_time) AS a
			FROM sessions GROUP BY session_id`, opts: base},
		goldenCase{name: "wide_result/nested", query: `SELECT session_id, play_time FROM sessions
			WHERE buffer_time > (SELECT AVG(buffer_time) FROM sessions)`, opts: base})
	// Every nested theorem query under the full system, and the two the
	// equivalence suites lean on under the ablation modes too.
	for _, q := range theoremQueries {
		if q.nested {
			cases = append(cases, goldenCase{name: q.name + "/iolap", query: q.query, opts: base})
		}
	}
	// A certain select over a chain of joins down to the streamed scan, the
	// shapes of TPC-H Q3, Q7, Q11 and Q17 (lateJoinQueries).
	for _, q := range lateJoinQueries {
		cases = append(cases, goldenCase{name: "late_join/" + q.name, query: q.query, opts: base})
	}
	for _, m := range []Mode{ModeOPT1, ModeHDA} {
		suffix := "/" + strings.ToLower(m.String())
		cases = append(cases,
			goldenCase{name: "nested_correlated" + suffix, query: theoremQuery(t, "nested_correlated"), opts: mode(m)},
			goldenCase{name: "sbi_nested_scalar" + suffix, query: sbiQuery, opts: mode(m)},
			// Lineage rows in the non-lazy modes: regenerated, then folded.
			goldenCase{name: "agg_over_agg" + suffix, query: aggOverAgg, opts: mode(m)})
	}
	for i := range cases {
		if cases[i].n == 0 {
			cases[i].n, cases[i].dbSeed = 240, 11
		}
	}
	return cases
}

// planGolden plans a golden case's query; udaf cases see GEOMEAN (the
// geometric-mean accumulator of TestUDFAndUDAFQueries) so their vectors take
// the interface path.
func planGolden(t *testing.T, c goldenCase) plan.Node {
	t.Helper()
	if !c.udaf {
		return planQuery(t, c.query)
	}
	aggs := agg.NewRegistry()
	if err := aggs.Register(agg.Func{
		Name: "GEOMEAN", TakesArg: true, Smooth: true,
		New: func() agg.Accumulator { return &geoAcc{} },
	}); err != nil {
		t.Fatal(err)
	}
	stmt, err := sql.Parse(c.query)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	node, _, err := sql.NewPlanner(testCatalog(), expr.NewRegistry(), aggs).Plan(stmt)
	if err != nil {
		t.Fatalf("plan: %v", err)
	}
	return node
}

// trajectoryDigest runs the case and folds core.ResultDigest of every batch,
// in order, into one word.
func trajectoryDigest(t *testing.T, c goldenCase, opts Options) uint64 {
	t.Helper()
	return digestUpdates(t, runGolden(t, c, opts))
}

// runGolden runs the case to completion and returns every batch's update.
func runGolden(t *testing.T, c goldenCase, opts Options) []*Update {
	t.Helper()
	db := testDB(c.n, c.dbSeed)
	if c.skewed {
		skewSessions(db)
	}
	if c.sorted {
		sortSessionsByBufferTime(db)
	}
	eng, err := NewEngine(planGolden(t, c), db, opts)
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	us, err := eng.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if c.wantRecovery && opts.Trials > 0 && eng.TotalRecoveries() == 0 {
		t.Fatalf("recovery fixture no longer triggers recoveries; the case pins nothing about replay")
	}
	return us
}

// digestUpdates folds core.ResultDigest of every batch, in order, into one
// word.
func digestUpdates(t *testing.T, us []*Update) uint64 {
	t.Helper()
	h := fnv.New64a()
	var word [8]byte
	for _, u := range us {
		d, err := ResultDigest(u.Result, u.Estimates)
		if err != nil {
			t.Fatalf("batch %d: digest: %v", u.Batch, err)
		}
		binary.LittleEndian.PutUint64(word[:], d)
		h.Write(word[:])
	}
	return h.Sum64()
}

// lateJoinExchange pins the per-batch modeled {ShuffleBytes, BroadcastBytes}
// of the late_join cases at B = 25, generated at a commit where every streamed
// row was weighed before its first join. The model ships weights with the
// tuples, so a join charges 8·B bytes per row of a weighted side whether or
// not that row's vector is drawn yet (DESIGN.md §10).
var lateJoinExchange = map[string][][2]int64{
	"late_join/pending_l":   {{19073, 960}, {21164, 960}, {18484, 960}, {20455, 960}, {19278, 960}, {18901, 960}},
	"late_join/pending_r":   {{19791, 960}, {19966, 960}, {19987, 960}, {18108, 960}, {20379, 960}, {21168, 960}},
	"late_join/one_to_many": {{33350, 960}, {34843, 960}, {33736, 960}, {31125, 960}, {32981, 960}, {34543, 960}},
	"late_join/two_joins":   {{37414, 792}, {36324, 792}, {38547, 792}, {34694, 792}, {40292, 792}, {40770, 792}},
}

// TestLateJoinExchangeBytes: where a streamed row's weights are drawn never
// shows in the modeled exchange bytes (figures 9(c) and 10(d)).
func TestLateJoinExchangeBytes(t *testing.T) {
	n := 0
	for _, c := range goldenCases(t) {
		want, ok := lateJoinExchange[c.name]
		if !ok {
			continue
		}
		n++
		for _, workers := range []int{1, 4} {
			for _, novec := range []bool{false, true} {
				opts := c.opts
				opts.Trials, opts.Workers, opts.ParThreshold, opts.NoVectorize = 25, workers, 1, novec
				eng, err := NewEngine(planGolden(t, c), testDB(c.n, c.dbSeed), opts)
				if err != nil {
					t.Fatal(err)
				}
				us, err := eng.Run()
				if err != nil {
					t.Fatal(err)
				}
				if len(us) != len(want) {
					t.Fatalf("%s: %d batches, want %d", c.name, len(us), len(want))
				}
				for i, u := range us {
					if got := [2]int64{u.ShuffleBytes, u.BroadcastBytes}; got != want[i] {
						t.Errorf("%s w%d novec=%v batch %d: shuffle/broadcast %v, pinned %v", c.name, workers, novec, u.Batch, got, want[i])
					}
				}
			}
		}
	}
	if n != len(lateJoinExchange) {
		t.Fatalf("%d of %d pinned cases are golden cases", n, len(lateJoinExchange))
	}
}

const trajectoryGoldenPath = "testdata/trajectory.golden"

// readGolden parses a golden file of "<key> <hex word>" lines.
func readGolden(t *testing.T, path string) map[string]uint64 {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("%v (run the test with -update at a commit whose behaviour is trusted)", err)
	}
	defer f.Close()
	want := map[string]uint64{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("%s: malformed line %q", path, line)
		}
		d, err := strconv.ParseUint(fields[1], 16, 64)
		if err != nil {
			t.Fatalf("%s: %q: %v", path, line, err)
		}
		want[fields[0]] = d
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}

// TestTrajectoryGolden compares every case's trajectory digest with a file
// generated at a commit that predates the code under test. The equivalence
// suites (worker, vectorize, budget) compare two runs of the same
// build, so once sequential and parallel, row and columnar execution share
// one fold body they compare that body with itself; this file is the oracle
// that is not the code under test. Each case runs at Trials {0, 25} and at
// all four corners of Workers {1, 4} × NoVectorize {false, true} with the
// parallel cutover pinned to one row, and every corner must land on the same
// pinned word.
//
// -update rewrites the file from the Workers=1, NoVectorize corner (and
// still checks the other three against it). A deliberate change of the
// weight stream or of the fold's operand order is a "digest epoch": it
// regenerates this file in a commit of its own and says so.
func TestTrajectoryGolden(t *testing.T) {
	var want map[string]uint64
	if !*updateGolden {
		want = readGolden(t, trajectoryGoldenPath)
	}
	got := map[string]uint64{}
	for _, c := range goldenCases(t) {
		for _, trials := range []int{0, 25} {
			c, trials := c, trials
			key := fmt.Sprintf("%s/B%d", c.name, trials)
			ref, seen := want[key]
			// One subtest level per case and one per corner, so that
			// -run 'TestTrajectoryGolden/.*/w1_' selects a schedule.
			t.Run(strings.ReplaceAll(key, "/", "."), func(t *testing.T) {
				if !*updateGolden && !seen {
					t.Fatalf("no golden entry for %s", key)
				}
				for _, corner := range []struct {
					name    string
					workers int
					novec   bool
				}{{"w1_rows", 1, true}, {"w1_columns", 1, false}, {"w4_rows", 4, true}, {"w4_columns", 4, false}} {
					corner := corner
					t.Run(corner.name, func(t *testing.T) {
						opts := c.opts
						opts.Trials = trials
						if trials == 0 {
							opts.Trials = -1 // 0 selects the default B
						}
						opts.Workers, opts.ParThreshold, opts.NoVectorize = corner.workers, 1, corner.novec
						d := trajectoryDigest(t, c, opts)
						if *updateGolden && !seen {
							ref, seen = d, true
							got[key] = d
						}
						if d != ref {
							t.Errorf("trajectory digest %016x, golden %016x", d, ref)
						}
					})
				}
			})
		}
	}
	if !*updateGolden {
		return
	}
	writeGolden(t, trajectoryGoldenPath, got,
		"# Trajectory digests pinned by TestTrajectoryGolden: <case>/B<trials> <fnv64a over per-batch core.ResultDigest>.\n"+
			"# Regenerate only as a deliberate digest epoch: go test ./internal/core -run TestTrajectoryGolden -update\n")
}

// writeGolden writes got under header, one "<key> <hex word>" line per key,
// sorted.
func writeGolden(t *testing.T, path string, got map[string]uint64, header string) {
	t.Helper()
	keys := make([]string, 0, len(got))
	for k := range got {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString(header)
	for _, k := range keys {
		fmt.Fprintf(&b, "%s %016x\n", k, got[k])
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}
