package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"iolap"
	"iolap/internal/storage"
)

func TestSniffType(t *testing.T) {
	cases := []struct {
		cell string
		want iolap.Type
	}{
		{"42", iolap.TInt},
		{"-7", iolap.TInt},
		{"3.14", iolap.TFloat},
		{"1e3", iolap.TFloat},
		{"hello", iolap.TString},
		{"", iolap.TString},
	}
	for _, c := range cases {
		if got := sniffType(c.cell); got != c.want {
			t.Errorf("sniffType(%q) = %v, want %v", c.cell, got, c.want)
		}
	}
}

func TestParseCell(t *testing.T) {
	if v, err := parseCell("42", iolap.TInt); err != nil || v.(int64) != 42 {
		t.Errorf("int: %v %v", v, err)
	}
	if v, err := parseCell("2.5", iolap.TFloat); err != nil || v.(float64) != 2.5 {
		t.Errorf("float: %v %v", v, err)
	}
	if v, err := parseCell("x", iolap.TString); err != nil || v.(string) != "x" {
		t.Errorf("string: %v %v", v, err)
	}
	if v, err := parseCell("", iolap.TInt); err != nil || v != nil {
		t.Errorf("empty cell must be NULL: %v %v", v, err)
	}
	if _, err := parseCell("abc", iolap.TInt); err == nil {
		t.Error("bad int must error")
	}
}

func TestLoadCSVEndToEnd(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "sessions.csv")
	content := "session_id,buffer_time,play_time\n" +
		"id1,36.0,238\n" +
		"id2,58.5,135\n" +
		"id3,17.25,617\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	s := iolap.NewSession()
	if err := loadCSV(s, "sessions="+path); err != nil {
		t.Fatal(err)
	}
	u, err := s.Exec("SELECT COUNT(*) AS n, AVG(buffer_time) AS a FROM sessions")
	if err != nil {
		t.Fatal(err)
	}
	if u.Rows[0][0].(float64) != 3 {
		t.Errorf("count = %v", u.Rows[0][0])
	}
	want := (36.0 + 58.5 + 17.25) / 3
	if got := u.Rows[0][1].(float64); got != want {
		t.Errorf("avg = %v, want %v", got, want)
	}
}

func TestConvertRoundTrip(t *testing.T) {
	// -convert writes a loaded table back out in the columnar v2 layout;
	// reloading it yields the same rows and \tables reports the format.
	dir := t.TempDir()
	src, _ := iolap.NewConvivaSession(300, 1)
	path := filepath.Join(dir, "sessions.iol")
	if err := convertTable(src, "conviva_sessions="+path, 64, true); err != nil {
		t.Fatal(err)
	}
	s := iolap.NewSession()
	if err := loadIOL(s, "sessions="+path); err != nil {
		t.Fatal(err)
	}
	n, err := s.RowCount("sessions")
	if err != nil {
		t.Fatal(err)
	}
	if n != 300 {
		t.Errorf("reloaded %d rows, want 300", n)
	}
	format, err := s.TableFormat("sessions")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(format, "columnar v2") {
		t.Errorf("format = %q, want columnar v2", format)
	}
	want, err := src.Exec("SELECT COUNT(*) AS n, SUM(play_time) AS s FROM conviva_sessions")
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Exec("SELECT COUNT(*) AS n, SUM(play_time) AS s FROM sessions")
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Rows[0] {
		if want.Rows[0][i] != got.Rows[0][i] {
			t.Errorf("col %d: original %v, converted %v", i, want.Rows[0][i], got.Rows[0][i])
		}
	}

	if err := convertTable(src, "missing-equals", 0, true); err == nil {
		t.Error("malformed spec must fail")
	}
	if err := convertTable(src, "nosuch="+path, 0, true); err == nil {
		t.Error("unknown table must fail")
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := convertTable(src, "conviva_sessions="+path, storage.BlockMaxRows+1, true); err == nil ||
		!strings.Contains(err.Error(), "BlockMaxRows") {
		t.Errorf("blocks above the codec cap: err = %v, want one naming BlockMaxRows", err)
	}
	if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, before) {
		t.Errorf("a failed convert changed the existing file (%d bytes, was %d; %v)", len(after), len(before), err)
	}
}

func TestLoadCSVErrors(t *testing.T) {
	s := iolap.NewSession()
	if err := loadCSV(s, "missing-equals"); err == nil {
		t.Error("malformed spec must fail")
	}
	if err := loadCSV(s, "t=/nonexistent/file.csv"); err == nil {
		t.Error("missing file must fail")
	}
	dir := t.TempDir()
	short := filepath.Join(dir, "short.csv")
	os.WriteFile(short, []byte("only_header\n"), 0o644)
	if err := loadCSV(s, "t="+short); err == nil {
		t.Error("header-only file must fail")
	}
	bad := filepath.Join(dir, "bad.csv")
	os.WriteFile(bad, []byte("x\n1\nnotanint\n"), 0o644)
	if err := loadCSV(s, "t2="+bad); err == nil {
		t.Error("type mismatch must fail")
	}
}

// runC3 drives the CLI's one-shot path end to end on a tiny built-in workload:
// buildSession, pickQuery, run. tweak adjusts the options first.
func runC3(t *testing.T, showStats bool, tweak func(*iolap.Options)) error {
	t.Helper()
	session, queries, err := buildSession("conviva", 200, 1, "", "")
	if err != nil {
		t.Fatal(err)
	}
	opts := &iolap.Options{Batches: 2, Trials: 10, Slack: 2.0, Seed: 1}
	tweak(opts)
	query, err := pickQuery(queries, "C3", "", opts)
	if err != nil {
		t.Fatal(err)
	}
	if opts.Stream == "" {
		t.Fatal("a built-in query must name its streamed table")
	}
	return run(session, query, opts, false, showStats, 3)
}

func TestRunWorkloadQuery(t *testing.T) {
	// Smoke test: once in memory, once with all join state forced through
	// spill files.
	if err := runC3(t, false, func(*iolap.Options) {}); err != nil {
		t.Fatal(err)
	}
	if err := runC3(t, true, func(o *iolap.Options) { o.StateBudgetBytes = -1 }); err != nil {
		t.Fatalf("full-spill run: %v", err)
	}
	if _, _, err := buildSession("", 200, 1, "", ""); err == nil {
		t.Error("missing workload/csv must fail")
	}
	_, queries, _ := buildSession("conviva", 200, 1, "", "")
	if _, err := pickQuery(queries, "NOPE", "", &iolap.Options{}); err == nil {
		t.Error("unknown query must fail")
	}
	if _, err := pickQuery(queries, "", "", &iolap.Options{}); err == nil {
		t.Error("neither -query nor -sql must fail")
	}
	if q, err := pickQuery(queries, "", "SELECT 1", &iolap.Options{}); err != nil || q != "SELECT 1" {
		t.Errorf("ad-hoc SQL = %q, %v", q, err)
	}
	if _, err := parseMode("badmode"); err == nil {
		t.Error("unknown mode must fail")
	}
	if m, err := parseMode("OPT1"); err != nil || m != iolap.ModeOPT1 {
		t.Errorf("parseMode(OPT1) = %v, %v", m, err)
	}
}

func TestREPL(t *testing.T) {
	session, _ := iolap.NewConvivaSession(200, 1)
	opts := &iolap.Options{Batches: 2, Trials: 10, Seed: 1}
	in := strings.NewReader("\\tables\n" +
		"SELECT COUNT(*) AS n FROM conviva_sessions\n" +
		"NOT SQL AT ALL\n" +
		"\\stream conviva_sessions\n" +
		"\\plan SELECT AVG(play_time) FROM conviva_sessions\n" +
		"\\q\n")
	var out bytes.Buffer
	if err := repl(session, opts, in, &out, 3); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"conviva_sessions (200 rows, memory)", // \tables
		"batch 2/2",                           // query ran to completion
		"error:",                              // bad SQL surfaced, loop continued
		"streaming",                           // \stream ack
		"Aggregate",                           // \plan output
	} {
		if !strings.Contains(got, want) {
			t.Errorf("REPL output missing %q:\n%s", want, got)
		}
	}
	// EOF without \q exits cleanly.
	if err := repl(session, opts, strings.NewReader(""), &out, 3); err != nil {
		t.Fatal(err)
	}
}
