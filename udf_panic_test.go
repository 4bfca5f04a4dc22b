package iolap

import (
	"errors"
	"math"
	"reflect"
	"sync"
	"testing"
	"time"

	"iolap/internal/core"
	"iolap/internal/expr"
	"iolap/internal/sql"
)

// boomSession holds one streamed table t(k, v) of 400 rows and two user
// functions that panic on the row v = 123: the UDF BOOM (the identity
// elsewhere) and the UDAF BOOMSUM (a weighted sum elsewhere).
func boomSession(t *testing.T) *Session {
	t.Helper()
	s := NewSession()
	s.MustCreateTable("t", []Column{{Name: "k", Type: TInt}, {Name: "v", Type: TFloat}}, Streamed)
	rows := make([][]interface{}, 400)
	for i := range rows {
		rows[i] = []interface{}{int64(i % 7), float64(i)}
	}
	s.MustInsert("t", rows)
	err := s.RegisterUDF("BOOM", 1, 1, func(args []interface{}) interface{} {
		if args[0] == 123.0 {
			panic("boom at 123")
		}
		return args[0]
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RegisterUDAF(UDAF{Name: "BOOMSUM", New: func() UDAFState { return &boomSum{} }}); err != nil {
		t.Fatal(err)
	}
	return s
}

type boomSum struct{ sum float64 }

func (b *boomSum) Add(v, w float64) {
	if v == 123 {
		panic("boom at 123")
	}
	b.sum += v * w
}
func (b *boomSum) Merge(o UDAFState)      { b.sum += o.(*boomSum).sum }
func (b *boomSum) Result(float64) float64 { return b.sum }
func (b *boomSum) Clone() UDAFState       { c := *b; return &c }

// checkUDFPanic asserts err is the user function's panic, named.
func checkUDFPanic(t *testing.T, err error, fn string) {
	t.Helper()
	var p expr.UDFPanic
	if !errors.As(err, &p) || p.Func != fn || p.Value != "boom at 123" {
		t.Fatalf("error = %v, want %s's panic as an expr.UDFPanic", err, fn)
	}
}

// forcedParallelCursor is Session.Query's cursor with every parallel site
// forced on (core.Engine.SetCutover, which the facade does not expose).
func forcedParallelCursor(t *testing.T, s *Session, query string, workers int) *Cursor {
	t.Helper()
	db := s.db()
	node, pp, err := sql.PlanQuery(query, sql.CatalogOf(db, s.streamed, ""), s.funcs, s.aggs)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewEngine(node, db, core.Options{Batches: 4, Trials: 10, Seed: 1, Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	eng.SetCutover(1)
	return &Cursor{engine: eng, pp: pp}
}

// TestUDFPanicFailsItsQuery: a user function that panics on one row ends the
// cursor and the exact run with an error naming it, on the inline and the
// parallel paths alike, instead of taking the process down.
func TestUDFPanicFailsItsQuery(t *testing.T) {
	s := boomSession(t)
	for _, c := range []struct{ fn, query string }{
		{"BOOM", "SELECT k, SUM(BOOM(v)) AS s FROM t GROUP BY k"},
		{"BOOMSUM", "SELECT k, BOOMSUM(v) AS s FROM t GROUP BY k"},
	} {
		for _, workers := range []int{1, 4} {
			cur := forcedParallelCursor(t, s, c.query, workers)
			batches := 0
			for cur.Next() {
				batches++
			}
			if batches == 4 {
				t.Fatalf("%s workers=%d: all batches delivered past the panicking row", c.fn, workers)
			}
			checkUDFPanic(t, cur.Err(), c.fn)
			if err := cur.Close(); err != nil {
				t.Fatal(err)
			}
		}
		_, err := s.Exec(c.query)
		checkUDFPanic(t, err, c.fn)
	}
}

// TestUDFPanicFailsOnlyItsServedSession: on a serving engine, the session
// whose UDF panics ends with that error while a concurrent session on the
// same server finishes bit-identical to its solo run.
func TestUDFPanicFailsOnlyItsServedSession(t *testing.T) {
	s := boomSession(t)
	const good = "SELECT k, SUM(v) AS s FROM t GROUP BY k"
	opts := &ServeSessionOptions{Stream: "t", Trials: 10, Seed: 7, Workers: 4}
	want := soloServed(t, s, good, opts)

	sv := s.NewServer(&ServeOptions{Batches: 4})
	defer sv.Close()
	bad, err := sv.Open("SELECT k, SUM(BOOM(v)) AS s FROM t GROUP BY k", opts)
	if err != nil {
		t.Fatal(err)
	}
	cur, err := sv.Open(good, opts)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var badErr, goodErr error
	var got []*Update
	wg.Add(2)
	go func() { defer wg.Done(); _, badErr = drainServed(bad) }()
	go func() { defer wg.Done(); got, goodErr = drainServed(cur) }()
	wg.Wait()
	checkUDFPanic(t, badErr, "BOOM")
	if goodErr != nil {
		t.Fatalf("concurrent session failed: %v", goodErr)
	}
	checkSameUpdates(t, got, want)
}

// TestUDFPanicInSharedBuildFailsOpen: a UDF that panics while the serving
// engine builds a shared join build side fails that Open with the UDF's
// error, and so does the next Open of the same query, which builds again
// instead of waiting on the failed build. A good session on the same server
// then matches its solo run.
func TestUDFPanicInSharedBuildFailsOpen(t *testing.T) {
	s := boomSession(t)
	s.MustCreateTable("d", []Column{{Name: "dk", Type: TInt}, {Name: "dv", Type: TFloat}}, Static)
	dims := make([][]interface{}, 7)
	for k := range dims {
		dims[k] = []interface{}{int64(k), float64(120 + k)} // dk = 3 holds dv = 123
	}
	s.MustInsert("d", dims)
	const (
		bad  = "SELECT t.k, SUM(t.v) AS s FROM t, (SELECT dk FROM d WHERE BOOM(dv) > 0) x WHERE t.k = x.dk GROUP BY t.k"
		good = "SELECT t.k, SUM(t.v) AS s FROM t, (SELECT dk FROM d WHERE dv > 0) x WHERE t.k = x.dk GROUP BY t.k"
	)
	opts := &ServeSessionOptions{Stream: "t", Trials: 10, Seed: 7, Workers: 4}
	want := soloServed(t, s, good, opts)

	sv := s.NewServer(&ServeOptions{Batches: 4})
	defer sv.Close()
	for i := 1; i <= 2; i++ {
		opened := make(chan error, 1)
		go func() {
			cur, err := sv.Open(bad, opts)
			if cur != nil {
				cur.Close()
			}
			opened <- err
		}()
		select {
		case err := <-opened:
			checkUDFPanic(t, err, "BOOM")
		case <-time.After(10 * time.Second):
			t.Fatalf("Open %d of the panicking query still blocked", i)
		}
	}
	cur, err := sv.Open(good, opts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := drainServed(cur)
	if err != nil {
		t.Fatal(err)
	}
	checkSameUpdates(t, got, want)
}

// drainServed collects a serving cursor's updates until it ends.
func drainServed(c *ServeCursor) (out []*Update, err error) {
	for c.Next() {
		out = append(out, c.Update())
	}
	return out, c.Err()
}

// soloServed runs query alone on a fresh four-batch server.
func soloServed(t *testing.T, s *Session, query string, opts *ServeSessionOptions) []*Update {
	t.Helper()
	sv := s.NewServer(&ServeOptions{Batches: 4})
	defer sv.Close()
	cur, err := sv.Open(query, opts)
	if err != nil {
		t.Fatal(err)
	}
	out, err := drainServed(cur)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// checkSameUpdates asserts a served trajectory equals the solo one bit for bit.
func checkSameUpdates(t *testing.T, got, want []*Update) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("session delivered %d updates, solo %d", len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(updateBits(got[i]), updateBits(want[i])) {
			t.Fatalf("update %d differs from the solo run", i+1)
		}
	}
}

// updateBits flattens an update's rows and estimates, floats as their bits.
func updateBits(u *Update) []interface{} {
	var out []interface{}
	for _, row := range u.Rows {
		for _, c := range row {
			if f, ok := c.(float64); ok {
				c = math.Float64bits(f)
			}
			out = append(out, c)
		}
	}
	for _, row := range u.Estimates {
		for _, e := range row {
			for _, f := range []float64{e.Value, e.Stdev, e.CILo, e.CIHi, e.RelStd} {
				out = append(out, math.Float64bits(f))
			}
		}
	}
	return out
}
