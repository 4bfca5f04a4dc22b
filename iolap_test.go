package iolap

import (
	"math"
	"strings"
	"testing"
)

// paperSession loads the paper's Figure 2(b) Sessions example.
func paperSession(t *testing.T) *Session {
	t.Helper()
	s := NewSession()
	s.MustCreateTable("sessions", []Column{
		{Name: "session_id", Type: TString},
		{Name: "buffer_time", Type: TFloat},
		{Name: "play_time", Type: TFloat},
	}, Streamed)
	s.MustInsert("sessions", [][]interface{}{
		{"id1", 36.0, 238.0},
		{"id2", 58.0, 135.0},
		{"id3", 17.0, 617.0},
		{"id4", 56.0, 194.0},
		{"id5", 19.0, 308.0},
		{"id6", 26.0, 319.0},
	})
	return s
}

const sbi = `SELECT AVG(play_time) AS apt FROM sessions
	WHERE buffer_time > (SELECT AVG(buffer_time) FROM sessions)`

func TestSessionExecSBI(t *testing.T) {
	s := paperSession(t)
	u, err := s.Exec(sbi)
	if err != nil {
		t.Fatal(err)
	}
	want := (238.0 + 135 + 194) / 3
	if got := u.Rows[0][0].(float64); math.Abs(got-want) > 1e-9 {
		t.Errorf("SBI = %v, want %v", got, want)
	}
	if u.Columns[0] != "apt" {
		t.Errorf("columns = %v", u.Columns)
	}
}

func TestCursorIncrementalSBI(t *testing.T) {
	s := paperSession(t)
	cur, err := s.Query(sbi, &Options{Batches: 2, Trials: 20, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	var last *Update
	n := 0
	for cur.Next() {
		last = cur.Update()
		n++
		if last.Batch != n {
			t.Errorf("batch numbering wrong: %d vs %d", last.Batch, n)
		}
	}
	if err := cur.Err(); err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("expected 2 batches, got %d", n)
	}
	// Final batch = exact answer.
	want := (238.0 + 135 + 194) / 3
	if got := last.Rows[0][0].(float64); math.Abs(got-want) > 1e-9 {
		t.Errorf("final = %v, want %v", got, want)
	}
	if last.Fraction != 1.0 {
		t.Errorf("final fraction = %v", last.Fraction)
	}
	if !strings.Contains(cur.Plan(), "Aggregate") {
		t.Error("plan rendering broken")
	}
}

func TestCursorErrorEstimates(t *testing.T) {
	s := NewSession()
	s.MustCreateTable("t", []Column{{Name: "x", Type: TFloat}}, Streamed)
	rows := make([][]interface{}, 400)
	for i := range rows {
		rows[i] = []interface{}{float64(i % 97)}
	}
	s.MustInsert("t", rows)
	cur, err := s.Query("SELECT AVG(x) AS m FROM t", &Options{Batches: 8, Trials: 50, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !cur.Next() {
		t.Fatal(cur.Err())
	}
	u := cur.Update()
	est := u.Estimates[0][0]
	if est.Stdev <= 0 {
		t.Error("first batch must carry uncertainty")
	}
	if est.CILo >= est.CIHi {
		t.Error("CI degenerate")
	}
	if u.MaxRelStdev() <= 0 {
		t.Error("MaxRelStdev should be positive early")
	}
}

func TestOrderByLimitOnCursor(t *testing.T) {
	s := paperSession(t)
	cur, err := s.Query(`SELECT session_id, play_time FROM sessions
		WHERE buffer_time < 100 ORDER BY play_time DESC LIMIT 2`,
		&Options{Batches: 2, Trials: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var last *Update
	for cur.Next() {
		last = cur.Update()
		if len(last.Rows) > 2 {
			t.Errorf("LIMIT violated: %d rows", len(last.Rows))
		}
	}
	if cur.Err() != nil {
		t.Fatal(cur.Err())
	}
	if got := last.Rows[0][0].(string); got != "id3" { // play_time 617
		t.Errorf("top row = %v, want id3", got)
	}
}

func TestUDFRegistration(t *testing.T) {
	s := paperSession(t)
	err := s.RegisterUDF("HALVE", 1, 1, func(args []interface{}) interface{} {
		return args[0].(float64) / 2
	})
	if err != nil {
		t.Fatal(err)
	}
	u, err := s.Exec("SELECT AVG(HALVE(play_time)) AS h FROM sessions")
	if err != nil {
		t.Fatal(err)
	}
	want := (238.0 + 135 + 617 + 194 + 308 + 319) / 6 / 2
	if got := u.Rows[0][0].(float64); math.Abs(got-want) > 1e-9 {
		t.Errorf("HALVE avg = %v, want %v", got, want)
	}
}

type testMedianState struct{ sum, n float64 }

func (m *testMedianState) Add(v, w float64)  { m.sum += v * w; m.n += w }
func (m *testMedianState) Merge(o UDAFState) { b := o.(*testMedianState); m.sum += b.sum; m.n += b.n }
func (m *testMedianState) Result(float64) float64 {
	if m.n == 0 {
		return 0
	}
	return m.sum / m.n
}
func (m *testMedianState) Clone() UDAFState { c := *m; return &c }

func TestUDAFRegistration(t *testing.T) {
	s := paperSession(t)
	if err := s.RegisterUDAF(UDAF{Name: "MYMEAN", New: func() UDAFState { return &testMedianState{} }}); err != nil {
		t.Fatal(err)
	}
	cur, err := s.Query("SELECT MYMEAN(buffer_time) AS m FROM sessions", &Options{Batches: 2, Trials: 10})
	if err != nil {
		t.Fatal(err)
	}
	var last *Update
	for cur.Next() {
		last = cur.Update()
	}
	if cur.Err() != nil {
		t.Fatal(cur.Err())
	}
	want := (36.0 + 58 + 17 + 56 + 19 + 26) / 6
	if got := last.Rows[0][0].(float64); math.Abs(got-want) > 1e-9 {
		t.Errorf("MYMEAN = %v, want %v", got, want)
	}
}

func TestSessionValidation(t *testing.T) {
	s := NewSession()
	if err := s.CreateTable("", nil, Static); err == nil {
		t.Error("empty table must be rejected")
	}
	s.MustCreateTable("t", []Column{{Name: "x", Type: TInt}}, Static)
	if err := s.CreateTable("t", []Column{{Name: "x", Type: TInt}}, Static); err == nil {
		t.Error("duplicate table must be rejected")
	}
	if err := s.Insert("missing", nil); err == nil {
		t.Error("insert into unknown table must fail")
	}
	if err := s.Insert("t", [][]interface{}{{1, 2}}); err == nil {
		t.Error("width mismatch must fail")
	}
	if err := s.Insert("t", [][]interface{}{{struct{}{}}}); err == nil {
		t.Error("unsupported type must fail")
	}
	if _, err := s.Query("NOT SQL", nil); err == nil {
		t.Error("parse errors must surface")
	}
	if _, err := s.Exec("SELECT * FROM nope"); err == nil {
		t.Error("plan errors must surface")
	}
}

func TestValueRoundTrip(t *testing.T) {
	s := NewSession()
	s.MustCreateTable("t", []Column{
		{Name: "i", Type: TInt},
		{Name: "f", Type: TFloat},
		{Name: "s", Type: TString},
		{Name: "b", Type: TBool},
	}, Streamed)
	s.MustInsert("t", [][]interface{}{{42, 1.5, "x", true}, {nil, nil, nil, nil}})
	u, err := s.Exec("SELECT i, f, s, b FROM t")
	if err != nil {
		t.Fatal(err)
	}
	row := u.Rows[0]
	if row[0].(int64) != 42 || row[1].(float64) != 1.5 || row[2].(string) != "x" || row[3].(bool) != true {
		t.Errorf("round trip wrong: %v", row)
	}
	if u.Rows[1][0] != nil {
		t.Error("NULL must round-trip to nil")
	}
}

func TestDemoSessions(t *testing.T) {
	s, queries := NewTPCHSession(300, 1)
	if len(queries) != 10 {
		t.Fatalf("TPC-H queries = %d, want 10", len(queries))
	}
	q := queries[0] // Q1
	cur, err := s.Query(q.SQL, &Options{Batches: 3, Trials: 10, Stream: q.Stream})
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for cur.Next() {
		n++
	}
	if cur.Err() != nil || n != 3 {
		t.Fatalf("TPC-H Q1 run failed: n=%d err=%v", n, cur.Err())
	}
	cs, cq := NewConvivaSession(300, 1)
	if len(cq) != 12 {
		t.Fatalf("Conviva queries = %d, want 12", len(cq))
	}
	// C8 uses a UDAF; must run through the preloaded registries.
	var c8 BenchQuery
	for _, q := range cq {
		if q.Name == "C8" {
			c8 = q
		}
	}
	cur, err = cs.Query(c8.SQL, &Options{Batches: 3, Trials: 10, Stream: c8.Stream})
	if err != nil {
		t.Fatal(err)
	}
	for cur.Next() {
	}
	if cur.Err() != nil {
		t.Fatal(cur.Err())
	}
}

func TestModesExposed(t *testing.T) {
	s := paperSession(t)
	for _, m := range []Mode{ModeIOLAP, ModeOPT1, ModeHDA} {
		cur, err := s.Query(sbi, &Options{Mode: m, Batches: 2, Trials: 10})
		if err != nil {
			t.Fatalf("mode %v: %v", m, err)
		}
		var last *Update
		for cur.Next() {
			last = cur.Update()
		}
		if cur.Err() != nil {
			t.Fatalf("mode %v: %v", m, cur.Err())
		}
		want := (238.0 + 135 + 194) / 3
		if got := last.Rows[0][0].(float64); math.Abs(got-want) > 1e-9 {
			t.Errorf("mode %v final = %v, want %v", m, got, want)
		}
	}
}

func TestRunUntil(t *testing.T) {
	s := NewSession()
	s.MustCreateTable("t", []Column{{Name: "x", Type: TFloat}}, Streamed)
	rows := make([][]interface{}, 2000)
	for i := range rows {
		rows[i] = []interface{}{float64(i%89) + 0.5}
	}
	s.MustInsert("t", rows)
	cur, err := s.Query("SELECT AVG(x) AS m FROM t", &Options{Batches: 40, Trials: 80, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	u, err := cur.RunUntil(0.02)
	if err != nil {
		t.Fatal(err)
	}
	if u == nil || u.MaxRelStdev() > 0.02 {
		t.Fatalf("RunUntil missed the target: %+v", u)
	}
	if u.Fraction >= 1 {
		t.Error("2% accuracy should be reached before the full scan")
	}
	// target <= 0 runs to completion.
	cur2, _ := s.Query("SELECT AVG(x) AS m FROM t", &Options{Batches: 5, Trials: 10})
	u2, err := cur2.RunUntil(0)
	if err != nil {
		t.Fatal(err)
	}
	if u2.Fraction != 1 {
		t.Errorf("target 0 must run to completion: %v", u2.Fraction)
	}
}

func TestStratifiedOptionOnFacade(t *testing.T) {
	s := paperSession(t)
	cur, err := s.Query("SELECT COUNT(*) AS n FROM sessions", &Options{
		Batches: 2, Trials: 5, StratifyBy: "session_id",
	})
	if err != nil {
		t.Fatal(err)
	}
	for cur.Next() {
	}
	if cur.Err() != nil {
		t.Fatal(cur.Err())
	}
	if _, err := s.Query("SELECT COUNT(*) AS n FROM sessions", &Options{StratifyBy: "nope"}); err == nil {
		t.Error("bad stratify column must surface")
	}
}

func TestOpStats(t *testing.T) {
	s := paperSession(t)
	cur, err := s.Query(sbi, &Options{Batches: 2, Trials: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !cur.Next() {
		t.Fatal(cur.Err())
	}
	stats := cur.OpStats()
	if len(stats) == 0 {
		t.Fatal("no operator stats")
	}
	kinds := map[string]bool{}
	var scanNews int
	for _, st := range stats {
		kinds[st.Kind] = true
		if st.Kind == "scan" && st.News > scanNews {
			scanNews = st.News
		}
	}
	for _, want := range []string{"scan", "select", "join", "aggregate", "sink"} {
		if !kinds[want] {
			t.Errorf("missing operator kind %q in stats: %v", want, stats)
		}
	}
	if scanNews != 3 { // batch 1 of 2 over 6 rows
		t.Errorf("scan news = %d, want 3", scanNews)
	}
	if len(cur.CostSnapshot()) == 0 {
		t.Error("cost snapshot empty")
	}
	for i := 0; i < 2; i++ { // Close is idempotent
		if err := cur.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestTableManagement(t *testing.T) {
	s := paperSession(t)
	if got := s.Tables(); len(got) != 1 || got[0] != "sessions" {
		t.Errorf("tables = %v", got)
	}
	if n, err := s.RowCount("sessions"); err != nil || n != 6 {
		t.Errorf("rowcount = %d, %v", n, err)
	}
	if _, err := s.RowCount("nope"); err == nil {
		t.Error("unknown table rowcount must fail")
	}
	if err := s.DropTable("sessions"); err != nil {
		t.Fatal(err)
	}
	if len(s.Tables()) != 0 {
		t.Error("drop failed")
	}
	if err := s.DropTable("sessions"); err == nil {
		t.Error("double drop must fail")
	}
	// SELECT * through the facade.
	s2 := paperSession(t)
	u, err := s2.Exec("SELECT * FROM sessions WHERE session_id = 'id3'")
	if err != nil {
		t.Fatal(err)
	}
	if len(u.Columns) != 3 || u.Rows[0][2].(float64) != 617 {
		t.Errorf("SELECT * via facade wrong: %v %v", u.Columns, u.Rows)
	}
}
