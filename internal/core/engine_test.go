package core

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"iolap/internal/agg"
	"iolap/internal/exec"
	"iolap/internal/expr"
	"iolap/internal/plan"
	"iolap/internal/rel"
	"iolap/internal/sql"
)

// ---------------------------------------------------------------------------
// Test fixtures

func sessionsSchema() rel.Schema {
	return rel.Schema{
		{Name: "session_id", Type: rel.KString},
		{Name: "buffer_time", Type: rel.KFloat},
		{Name: "play_time", Type: rel.KFloat},
		{Name: "cdn", Type: rel.KString},
	}
}

func cdnsSchema() rel.Schema {
	return rel.Schema{
		{Name: "cdn", Type: rel.KString},
		{Name: "region", Type: rel.KString},
	}
}

// genSessions builds a deterministic synthetic sessions table.
func genSessions(n int, seed int64) *rel.Relation {
	rng := rand.New(rand.NewSource(seed))
	r := rel.NewRelation(sessionsSchema())
	cdns := []string{"east", "west", "eu"}
	for i := 0; i < n; i++ {
		bt := 10 + rng.ExpFloat64()*25
		pt := 30 + rng.Float64()*600
		r.Append(
			rel.String("s"+itoa(i)),
			rel.Float(math.Round(bt*10)/10),
			rel.Float(math.Round(pt*10)/10),
			rel.String(cdns[rng.Intn(len(cdns))]),
		)
	}
	return r
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b [20]byte
	pos := len(b)
	for i > 0 {
		pos--
		b[pos] = byte('0' + i%10)
		i /= 10
	}
	return string(b[pos:])
}

func testDB(n int, seed int64) *exec.DB {
	db := exec.NewDB()
	db.Put("sessions", genSessions(n, seed))
	cdns := rel.NewRelation(cdnsSchema())
	cdns.Append(rel.String("east"), rel.String("us-east"))
	cdns.Append(rel.String("west"), rel.String("us-west"))
	cdns.Append(rel.String("eu"), rel.String("europe"))
	db.Put("cdns", cdns)
	// tags has several rows per cdn: a join on it matches one session 1:n.
	tags := rel.NewRelation(tagsSchema())
	for _, t := range [][2]string{{"east", "video"}, {"east", "live"}, {"west", "video"}, {"eu", "video"}, {"eu", "live"}, {"eu", "ads"}} {
		tags.Append(rel.String(t[0]), rel.String(t[1]))
	}
	db.Put("tags", tags)
	return db
}

func tagsSchema() rel.Schema {
	return rel.Schema{
		{Name: "cdn", Type: rel.KString},
		{Name: "tag", Type: rel.KString},
	}
}

func testCatalog() *sql.Catalog {
	cat := sql.NewCatalog()
	cat.AddTable("sessions", sessionsSchema(), true)
	cat.AddTable("cdns", cdnsSchema(), false)
	cat.AddTable("tags", tagsSchema(), false)
	return cat
}

func planQuery(t testing.TB, query string) plan.Node {
	t.Helper()
	stmt, err := sql.Parse(query)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	pl := sql.NewPlanner(testCatalog(), expr.NewRegistry(), agg.NewRegistry())
	node, _, err := pl.Plan(stmt)
	if err != nil {
		t.Fatalf("plan: %v", err)
	}
	return node
}

// oracle evaluates the query exactly on D_i (the first `seen` rows of the
// streamed table) at multiplicity m_i — the definition of Q(D_i, m_i) in
// Section 2 and the reference of Theorem 1.
func oracle(t testing.TB, root plan.Node, db *exec.DB, streamed string, seen int) *rel.Relation {
	t.Helper()
	odb, mi := oracleDB(db, streamed, seen)
	out, err := exec.NewExecutor(0).RunScaled(root, odb, mi)
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	return out
}

// oracleDB is db with the streamed table cut to D_i, and m_i. The rows keep
// their own multiplicity: exec.Executor.RunScaled applies m_i where the
// engine does, so a one-row group's AVG is the row's value, not x·m_i/m_i.
func oracleDB(db *exec.DB, streamed string, seen int) (*exec.DB, float64) {
	src, _ := db.Get(streamed)
	mi := 1.0
	if seen > 0 {
		mi = float64(src.Len()) / float64(seen)
	}
	part := rel.NewRelation(src.Schema)
	part.Tuples = src.Tuples[:seen:seen]
	odb := exec.NewDB()
	for _, name := range db.Tables() {
		r, _ := db.Get(name)
		odb.Put(name, r)
	}
	odb.Put(streamed, part)
	return odb, mi
}

// theorem1 runs the engine over all batches and checks every partial result
// against the oracle.
func theorem1(t *testing.T, query string, n int, opts Options) *Engine {
	t.Helper()
	return checkTheorem1(t, sessionsCase(t, query, query, n, opts))
}

// ---------------------------------------------------------------------------
// Theorem 1 across query shapes and modes

const sbiQuery = `SELECT AVG(play_time) AS apt FROM sessions
	WHERE buffer_time > (SELECT AVG(buffer_time) FROM sessions)`

var theoremQueries = []struct {
	name   string
	query  string
	nested bool
}{
	{"flat_global_agg", `SELECT COUNT(*) AS n, AVG(buffer_time) AS abt, SUM(play_time) AS spt FROM sessions`, false},
	{"flat_filter_agg", `SELECT SUM(play_time) AS s FROM sessions WHERE buffer_time > 25 AND cdn = 'east'`, false},
	{"flat_group_by", `SELECT cdn, COUNT(*) AS n, AVG(play_time) AS apt FROM sessions GROUP BY cdn`, false},
	{"join_dim_group", `SELECT c.region, SUM(s.play_time) AS spt FROM sessions s, cdns c
		WHERE s.cdn = c.cdn GROUP BY c.region`, false},
	{"sbi_nested_scalar", sbiQuery, true},
	{"nested_correlated", `SELECT COUNT(*) AS n FROM sessions s
		WHERE s.buffer_time > (SELECT AVG(buffer_time) FROM sessions i WHERE i.cdn = s.cdn)`, true},
	{"nested_in_having", `SELECT AVG(play_time) AS apt FROM sessions
		WHERE cdn IN (SELECT cdn FROM sessions GROUP BY cdn HAVING AVG(buffer_time) > 20)`, true},
	{"having_scalar_sub", `SELECT cdn, SUM(play_time) AS spt FROM sessions
		GROUP BY cdn HAVING SUM(play_time) > (SELECT 0.3 * SUM(play_time) FROM sessions)`, true},
	{"union_all", `SELECT play_time AS v FROM sessions WHERE cdn = 'east'
		UNION ALL SELECT buffer_time AS v FROM sessions WHERE buffer_time > 40`, false},
	{"case_expression", `SELECT cdn, SUM(CASE WHEN buffer_time > 30 THEN play_time ELSE 0 END) AS slow_pt
		FROM sessions GROUP BY cdn`, false},
	{"arith_over_nested", `SELECT COUNT(*) AS n FROM sessions
		WHERE play_time / 60 < (SELECT AVG(play_time) / 30 FROM sessions)`, true},
}

func TestTheorem1IOLAP(t *testing.T) {
	for _, q := range theoremQueries {
		q := q
		t.Run(q.name, func(t *testing.T) {
			eng := theorem1(t, q.query, 240, Options{Mode: ModeIOLAP, Batches: 8, Trials: 40, Seed: 1})
			if eng.Nested() != q.nested {
				t.Errorf("nested classification = %v, want %v", eng.Nested(), q.nested)
			}
		})
	}
}

func TestTheorem1OPT1(t *testing.T) {
	for _, q := range theoremQueries {
		q := q
		t.Run(q.name, func(t *testing.T) {
			theorem1(t, q.query, 160, Options{Mode: ModeOPT1, Batches: 5, Trials: 30, Seed: 2})
		})
	}
}

func TestTheorem1HDA(t *testing.T) {
	for _, q := range theoremQueries {
		q := q
		t.Run(q.name, func(t *testing.T) {
			theorem1(t, q.query, 160, Options{Mode: ModeHDA, Batches: 5, Seed: 3})
		})
	}
}

// TestTheorem1ManySeeds fuzzes the SBI query across seeds and batch counts.
func TestTheorem1ManySeeds(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		for _, p := range []int{3, 7} {
			theorem1(t, sbiQuery, 150, Options{Mode: ModeIOLAP, Batches: p, Trials: 25, Seed: seed})
		}
	}
}

// TestTheorem1UnderRecovery feeds adversarially sorted data (ascending
// buffer_time) so the running inner average drifts monotonically, forcing
// variation-range integrity failures — and checks the recovered results are
// still exact.
func TestTheorem1UnderRecovery(t *testing.T) {
	db := testDB(200, 7)
	sessions, _ := db.Get("sessions")
	sort.Slice(sessions.Tuples, func(i, j int) bool {
		return sessions.Tuples[i].Vals[1].Float() < sessions.Tuples[j].Vals[1].Float()
	})
	root := planQuery(t, sbiQuery)
	// Slack 0 makes ranges as tight as possible: failures guaranteed.
	eng, err := NewEngine(root, db, Options{Mode: ModeIOLAP, Batches: 10, Trials: 20, Slack: 0, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	for !eng.Done() {
		u, err := eng.Step()
		if err != nil {
			t.Fatalf("step: %v", err)
		}
		seen += eng.deltas[u.Batch-1].Len()
		want := oracle(t, root, db, "sessions", seen)
		if !rel.EqualBag(u.Result, want, 1e-6) {
			t.Fatalf("batch %d diverged after recovery\ngot:\n%s\nwant:\n%s", u.Batch, u.Result, want)
		}
	}
	if eng.TotalRecoveries() == 0 {
		t.Error("adversarial order with zero slack should force failure-recovery")
	}
}

// TestRecoveryBeyondSnapshotWindow: a failure whose consistent batch is older
// than every retained snapshot recovers from scratch, and the answer is the
// one a window wide enough to hold the snapshot gives.
func TestRecoveryBeyondSnapshotWindow(t *testing.T) {
	root := planQuery(t, theoremQuery(t, "nested_correlated"))
	db := testDB(400, 2)
	opts := Options{Mode: ModeIOLAP, Batches: 16, Trials: 15, Slack: 0.5, Seed: 2}
	run := func(keep int) []*Update {
		eng, err := NewEngine(root, db, opts)
		if err != nil {
			t.Fatal(err)
		}
		eng.keepSnaps = keep
		us, err := eng.Run()
		if err != nil {
			t.Fatal(err)
		}
		return us
	}
	wide, narrow := run(opts.Batches), run(2)
	evicted := 0
	for i, u := range narrow {
		// Batch b keeps the snapshots after b-2 and b-1 in the narrow window.
		if w := wide[i].RecoveredFrom; w > 0 && w < u.Batch-2 {
			evicted++
			if u.RecoveredFrom != 0 {
				t.Errorf("batch %d: the wide window restored batch %d; the narrow one restored %d, want 0 (scratch)",
					u.Batch, w, u.RecoveredFrom)
			}
		}
		seen := int(math.Round(u.Fraction * 400))
		if want := oracle(t, root, db, "sessions", seen); !rel.EqualBag(u.Result, want, 1e-6) {
			t.Fatalf("batch %d diverged (snapshot eviction)", u.Batch)
		}
	}
	if evicted == 0 {
		t.Fatal("no recovery reached past a 2-snapshot window; the fixture tests no eviction")
	}
	if digestUpdates(t, narrow) != digestUpdates(t, wide) {
		t.Error("the narrow window's trajectory differs from the wide window's")
	}
}

// ---------------------------------------------------------------------------
// Behavioural properties

func TestFinalBatchMatchesBaseline(t *testing.T) {
	// After the last batch the partial result is the exact answer
	// (m_p = 1): the full-spectrum guarantee of Section 1.
	db := testDB(200, 11)
	root := planQuery(t, sbiQuery)
	eng, err := NewEngine(root, db, Options{Batches: 6, Trials: 30, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	updates, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	baseline, err := exec.Run(root, db)
	if err != nil {
		t.Fatal(err)
	}
	final := updates[len(updates)-1]
	if !rel.EqualBag(final.Result, baseline, 1e-9) {
		t.Errorf("final result must equal the batch baseline\ngot:\n%s\nwant:\n%s", final.Result, baseline)
	}
	if final.Fraction != 1.0 {
		t.Errorf("final fraction = %v", final.Fraction)
	}
}

func TestErrorEstimatesShrink(t *testing.T) {
	db := testDB(600, 13)
	root := planQuery(t, `SELECT AVG(play_time) AS apt FROM sessions`)
	eng, err := NewEngine(root, db, Options{Batches: 10, Trials: 60, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	updates, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	first := updates[0].MaxRelStdev()
	last := updates[len(updates)-2].MaxRelStdev() // last-1: final batch is exact
	if first <= 0 {
		t.Fatal("first batch should report positive uncertainty")
	}
	if last >= first {
		t.Errorf("relative stdev should shrink: first %v, batch p-1 %v", first, last)
	}
	// CI should bracket the true answer at (say) batch 3.
	truth := oracleValue(t, root, db, 600)
	u := updates[2]
	est := u.Estimates[0][0]
	if est.CILo > truth || truth > est.CIHi {
		t.Logf("note: 95%% CI [%v,%v] missed truth %v (can happen ~5%% of the time)", est.CILo, est.CIHi, truth)
	}
}

func oracleValue(t *testing.T, root plan.Node, db *exec.DB, seen int) float64 {
	out := oracle(t, root, db, "sessions", seen)
	return out.Tuples[0].Vals[0].Float()
}

// TestNDSetShrinksWithIOLAP: the non-deterministic set shrinks (and
// recomputation stays bounded) under iOLAP, while HDA's recomputed set
// grows linearly — the Figure 8 contrast.
func TestNDSetShrinksAndHDADegrades(t *testing.T) {
	run := func(mode Mode) []int {
		db := testDB(400, 17)
		root := planQuery(t, sbiQuery)
		eng, err := NewEngine(root, db, Options{Mode: mode, Batches: 8, Trials: 30, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		var recomputed []int
		for !eng.Done() {
			u, err := eng.Step()
			if err != nil {
				t.Fatal(err)
			}
			recomputed = append(recomputed, u.Recomputed)
		}
		return recomputed
	}
	io := run(ModeIOLAP)
	hda := run(ModeHDA)
	// HDA per-batch recomputation must grow ~linearly: last > 3x second.
	if hda[len(hda)-1] < 3*hda[1] {
		t.Errorf("HDA recomputation should grow linearly: %v", hda)
	}
	// iOLAP's final batches must recompute far less than HDA's.
	if io[len(io)-1]*4 > hda[len(hda)-1] {
		t.Errorf("iOLAP should recompute much less than HDA in late batches: iolap=%v hda=%v", io, hda)
	}
}

func TestJoinStateOptimization(t *testing.T) {
	// Fact ⋈ static dimension: only the dimension side may be cached
	// (Section 4.2's fact/dimension optimization).
	db := testDB(300, 19)
	root := planQuery(t, `SELECT c.region, SUM(s.play_time) AS spt FROM sessions s, cdns c
		WHERE s.cdn = c.cdn GROUP BY c.region`)
	eng, err := NewEngine(root, db, Options{Batches: 5, Trials: 10, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Step(); err != nil {
		t.Fatal(err)
	}
	var joinOp *opJoin
	for _, op := range eng.comp.ops {
		if j, ok := op.(*opJoin); ok {
			joinOp = j
		}
	}
	if joinOp == nil {
		t.Fatal("no join operator")
	}
	if joinOp.lStore != nil {
		t.Error("fact side must not be cached when the dimension is static")
	}
	if joinOp.rStore == nil {
		t.Error("dimension side must be cached (fact keeps streaming)")
	}
	if joinOp.rStore.Len() != 3 {
		t.Errorf("dimension store rows = %d, want 3", joinOp.rStore.Len())
	}
}

func TestSBIJoinDoesNotCacheFactSide(t *testing.T) {
	// Figure 4 / Section 4.2: in SBI the fact side of the cross join is
	// not cached because the aggregate side has no tuple uncertainty and
	// cannot grow.
	db := testDB(100, 23)
	root := planQuery(t, sbiQuery)
	eng, err := NewEngine(root, db, Options{Batches: 4, Trials: 10, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Step(); err != nil {
		t.Fatal(err)
	}
	for _, op := range eng.comp.ops {
		if j, ok := op.(*opJoin); ok {
			if j.lStore != nil {
				t.Error("SBI fact side must not be cached (paper Fig 4)")
			}
			if j.rStore == nil || j.rStore.Len() != 1 {
				t.Error("SBI aggregate side must be cached (1 row)")
			}
		}
	}
}

func TestUpdateMetadata(t *testing.T) {
	db := testDB(120, 29)
	root := planQuery(t, sbiQuery)
	eng, err := NewEngine(root, db, Options{Batches: 4, Trials: 10, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	u1, err := eng.Step()
	if err != nil {
		t.Fatal(err)
	}
	if u1.Batch != 1 || u1.Batches != 4 {
		t.Errorf("batch metadata wrong: %d/%d", u1.Batch, u1.Batches)
	}
	if u1.Fraction <= 0 || u1.Fraction > 0.3 {
		t.Errorf("fraction = %v", u1.Fraction)
	}
	// SBI's only exchanges are broadcasts: the scalar subquery side of the
	// cross join and the published aggregate tables replicate to every
	// worker; nothing repartitions by key, so shuffle bytes stay zero.
	if u1.BroadcastBytes <= 0 {
		t.Error("broadcast accounting missing")
	}
	if u1.ShuffleBytes != 0 {
		t.Errorf("scalar-subquery SBI should shuffle nothing, got %d bytes", u1.ShuffleBytes)
	}
	if got := eng.TotalExchangeBytes(); got != u1.ShuffleBytes+u1.BroadcastBytes {
		t.Errorf("TotalExchangeBytes = %d, want %d", got, u1.ShuffleBytes+u1.BroadcastBytes)
	}
	if u1.Duration <= 0 {
		t.Error("duration missing")
	}
	if u1.OtherStateBytes <= 0 {
		t.Error("state accounting missing")
	}
	if !eng.Done() {
		if _, err := eng.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if s := eng.PlanString(); !strings.Contains(s, "Aggregate") {
		t.Error("plan rendering broken")
	}
}

func TestEngineValidation(t *testing.T) {
	db := testDB(50, 31)
	// No streamed table: cdns only.
	stmt, _ := sql.Parse(`SELECT COUNT(*) AS n FROM cdns`)
	pl := sql.NewPlanner(testCatalog(), expr.NewRegistry(), agg.NewRegistry())
	node, _, err := pl.Plan(stmt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewEngine(node, db, Options{}); err == nil {
		t.Error("plan without a streamed table must be rejected")
	}
	// Unknown streamed table in DB.
	root := planQuery(t, `SELECT COUNT(*) AS n FROM sessions`)
	if _, err := NewEngine(root, exec.NewDB(), Options{}); err == nil {
		t.Error("missing table must be rejected")
	}
	// Stepping past the end errors.
	eng, err := NewEngine(root, db, Options{Batches: 2, Trials: 5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Step(); err == nil {
		t.Error("Step past completion must error")
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	// Two runs at the default Workers and adaptive cutover: the engine is
	// deterministic for a fixed seed.
	c := goldenCase{query: sbiQuery, n: 150, dbSeed: 37, adaptive: true,
		opts: Options{Batches: 5, Trials: 20, Seed: 99}}
	assertConfigsAgree(t, c.lattice(t), execConfig{}, execConfig{})
}

func TestUDFAndUDAFQueries(t *testing.T) {
	// UDF in predicate and UDAF in aggregation, streaming end to end.
	funcs := expr.NewRegistry()
	if err := funcs.Register(expr.ScalarFunc{
		Name: "ENGAGEMENT", MinArgs: 2, MaxArgs: 2, RetType: rel.KFloat,
		Fn: func(args []rel.Value) rel.Value {
			if args[0].IsNull() || args[1].IsNull() {
				return rel.Null()
			}
			return rel.Float(args[0].Float() / (1 + args[1].Float()/60))
		},
	}); err != nil {
		t.Fatal(err)
	}
	aggs := agg.NewRegistry()
	if err := aggs.Register(agg.Func{
		Name: "GEOMEAN", TakesArg: true, Smooth: true,
		New: func() agg.Accumulator { return &geoAcc{} },
	}); err != nil {
		t.Fatal(err)
	}
	pl := sql.NewPlanner(testCatalog(), funcs, aggs)
	stmt, err := sql.Parse(`SELECT cdn, GEOMEAN(play_time) AS g FROM sessions
		WHERE ENGAGEMENT(play_time, buffer_time) > 100 GROUP BY cdn`)
	if err != nil {
		t.Fatal(err)
	}
	root, _, err := pl.Plan(stmt)
	if err != nil {
		t.Fatal(err)
	}
	db := testDB(200, 41)
	eng, err := NewEngine(root, db, Options{Batches: 5, Trials: 20, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	for !eng.Done() {
		u, err := eng.Step()
		if err != nil {
			t.Fatal(err)
		}
		seen += eng.deltas[u.Batch-1].Len()
		want := oracle(t, root, db, "sessions", seen)
		if !rel.EqualBag(u.Result, want, 1e-6) {
			t.Fatalf("UDF/UDAF batch %d diverged\ngot:\n%s\nwant:\n%s", u.Batch, u.Result, want)
		}
	}
}

// geoAcc is a geometric-mean UDAF accumulator used by the tests.
type geoAcc struct{ logSum, n float64 }

func (a *geoAcc) Add(v, w float64) {
	if v > 0 {
		a.logSum += math.Log(v) * w
		a.n += w
	}
}
func (a *geoAcc) Result(float64) float64 {
	if a.n == 0 {
		return math.NaN()
	}
	return math.Exp(a.logSum / a.n)
}
func (a *geoAcc) Merge(o agg.Accumulator) {
	b := o.(*geoAcc)
	a.logSum += b.logSum
	a.n += b.n
}
func (a *geoAcc) Clone() agg.Accumulator { c := *a; return &c }
func (a *geoAcc) Reset()                 { a.logSum, a.n = 0, 0 }
func (a *geoAcc) SizeBytes() int         { return 16 }
