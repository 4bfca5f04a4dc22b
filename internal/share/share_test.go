package share

import (
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"iolap/internal/agg"
	"iolap/internal/expr"
	"iolap/internal/plan"
	"iolap/internal/rel"
)

func col(i int) *expr.Col           { return &expr.Col{Idx: i, Name: "c", Knd: rel.KFloat} }
func konst(v rel.Value) *expr.Const { return &expr.Const{V: v} }

func scan(table, alias string, streamed bool) *plan.Scan {
	return &plan.Scan{Table: table, Alias: alias, Streamed: streamed}
}

func TestFingerprintAliasInvariance(t *testing.T) {
	a := scan("sessions", "s", true)
	b := scan("sessions", "x", true)
	if Fingerprint(a) != Fingerprint(b) {
		t.Fatalf("alias changed fingerprint: %q vs %q", Fingerprint(a), Fingerprint(b))
	}
	c := scan("other", "s", true)
	if Fingerprint(a) == Fingerprint(c) {
		t.Fatalf("different tables collided: %q", Fingerprint(a))
	}
	d := scan("sessions", "s", false)
	if Fingerprint(a) == Fingerprint(d) {
		t.Fatalf("streamed flag ignored: %q", Fingerprint(a))
	}
}

func TestFingerprintCommutativeNormalization(t *testing.T) {
	base := scan("t", "", true)
	cases := []struct{ l, r expr.Expr }{
		{&expr.Cmp{Op: expr.Eq, L: col(0), R: col(1)}, &expr.Cmp{Op: expr.Eq, L: col(1), R: col(0)}},
		{&expr.Cmp{Op: expr.Ne, L: col(0), R: col(1)}, &expr.Cmp{Op: expr.Ne, L: col(1), R: col(0)}},
		// a > 5  ≡  5 < a
		{&expr.Cmp{Op: expr.Gt, L: col(0), R: konst(rel.Float(5))},
			&expr.Cmp{Op: expr.Lt, L: konst(rel.Float(5)), R: col(0)}},
		// a >= 5  ≡  5 <= a
		{&expr.Cmp{Op: expr.Ge, L: col(0), R: konst(rel.Float(5))},
			&expr.Cmp{Op: expr.Le, L: konst(rel.Float(5)), R: col(0)}},
	}
	for i, c := range cases {
		fl := Fingerprint(&plan.Select{Child: base, Pred: c.l})
		fr := Fingerprint(&plan.Select{Child: base, Pred: c.r})
		if fl != fr {
			t.Errorf("case %d: commutative forms did not collide:\n  %q\n  %q", i, fl, fr)
		}
	}
	// Operand order that evaluation can observe must NOT collide: AND, OR
	// and IN stop early, and + and * keep the first NaN's payload.
	kept := []struct{ l, r expr.Expr }{
		{&expr.And{L: col(0), R: col(1)}, &expr.And{L: col(1), R: col(0)}},
		{&expr.Or{L: col(0), R: col(1)}, &expr.Or{L: col(1), R: col(0)}},
		{&expr.Arith{Op: expr.Add, L: col(0), R: col(1)}, &expr.Arith{Op: expr.Add, L: col(1), R: col(0)}},
		{&expr.Arith{Op: expr.Mul, L: col(0), R: col(1)}, &expr.Arith{Op: expr.Mul, L: col(1), R: col(0)}},
		{&expr.In{E: col(0), List: []expr.Expr{konst(rel.Int(1)), konst(rel.Int(2))}},
			&expr.In{E: col(0), List: []expr.Expr{konst(rel.Int(2)), konst(rel.Int(1))}}},
	}
	for i, c := range kept {
		fl := Fingerprint(&plan.Select{Child: base, Pred: c.l})
		fr := Fingerprint(&plan.Select{Child: base, Pred: c.r})
		if fl == fr {
			t.Errorf("kept case %d: operand orders collided: %q", i, fl)
		}
	}
	// Non-commutative must NOT collide.
	sub := Fingerprint(&plan.Select{Child: base, Pred: &expr.Arith{Op: expr.Sub, L: col(0), R: col(1)}})
	bus := Fingerprint(&plan.Select{Child: base, Pred: &expr.Arith{Op: expr.Sub, L: col(1), R: col(0)}})
	if sub == bus {
		t.Fatalf("a-b collided with b-a: %q", sub)
	}
	lt := Fingerprint(&plan.Select{Child: base, Pred: &expr.Cmp{Op: expr.Lt, L: col(0), R: col(1)}})
	le := Fingerprint(&plan.Select{Child: base, Pred: &expr.Cmp{Op: expr.Le, L: col(0), R: col(1)}})
	if lt == le {
		t.Fatalf("< collided with <=: %q", lt)
	}
}

func TestFingerprintConstKinds(t *testing.T) {
	base := scan("t", "", true)
	fi := Fingerprint(&plan.Select{Child: base, Pred: &expr.Cmp{Op: expr.Eq, L: col(0), R: konst(rel.Int(1))}})
	ff := Fingerprint(&plan.Select{Child: base, Pred: &expr.Cmp{Op: expr.Eq, L: col(0), R: konst(rel.Float(1))}})
	if fi == ff {
		t.Fatalf("int and float constants collided: %q", fi)
	}
}

func TestFingerprintJoinKeyPairOrder(t *testing.T) {
	l, r := scan("fact", "f", true), scan("dim", "d", false)
	a := Fingerprint(&plan.Join{L: l, R: r, LKeys: []int{0, 2}, RKeys: []int{1, 0}})
	b := Fingerprint(&plan.Join{L: l, R: r, LKeys: []int{2, 0}, RKeys: []int{0, 1}})
	if a != b {
		t.Fatalf("join key pair order changed fingerprint:\n  %q\n  %q", a, b)
	}
	// Different pairing must not collide.
	c := Fingerprint(&plan.Join{L: l, R: r, LKeys: []int{0, 2}, RKeys: []int{0, 1}})
	if a == c {
		t.Fatalf("different key pairings collided: %q", a)
	}
	// Swapped join sides must not collide (schema order differs).
	d := Fingerprint(&plan.Join{L: r, R: l, LKeys: []int{1, 0}, RKeys: []int{0, 2}})
	if a == d {
		t.Fatalf("swapped join sides collided: %q", a)
	}
}

func TestFingerprintUnionOrderSensitive(t *testing.T) {
	l, r := scan("a", "", true), scan("b", "", true)
	if Fingerprint(&plan.Union{L: l, R: r}) == Fingerprint(&plan.Union{L: r, R: l}) {
		t.Fatal("union children sorted — emission order is load-bearing")
	}
}

func TestFingerprintAggregate(t *testing.T) {
	reg := agg.NewRegistry()
	avgFn, _ := reg.Lookup("AVG")
	sumFn, _ := reg.Lookup("SUM")
	child := scan("t", "", true)
	a := &plan.Aggregate{Child: child, GroupBy: []int{1},
		Aggs: []plan.AggSpec{{Fn: avgFn, Arg: col(0), Name: "x"}}}
	b := &plan.Aggregate{Child: child, GroupBy: []int{1},
		Aggs: []plan.AggSpec{{Fn: avgFn, Arg: col(0), Name: "totally_different"}}}
	if Fingerprint(a) != Fingerprint(b) {
		t.Fatal("output alias changed aggregate fingerprint")
	}
	c := &plan.Aggregate{Child: child, GroupBy: []int{1},
		Aggs: []plan.AggSpec{{Fn: sumFn, Arg: col(0), Name: "x"}}}
	if Fingerprint(a) == Fingerprint(c) {
		t.Fatal("AVG and SUM collided")
	}
	d := &plan.Aggregate{Child: child, GroupBy: []int{2},
		Aggs: []plan.AggSpec{{Fn: avgFn, Arg: col(0), Name: "x"}}}
	if Fingerprint(a) == Fingerprint(d) {
		t.Fatal("different group-by collided")
	}
}

// ---------------------------------------------------------------------------
// Cache

type sizedVal struct{ n int64 }

func (s *sizedVal) SharedBytes() int64 { return s.n }

func TestCacheBuildOnce(t *testing.T) {
	c := NewCache()
	var builds int32
	build := func() (any, error) {
		atomic.AddInt32(&builds, 1)
		return &sizedVal{n: 100}, nil
	}
	v1, rel1, hit1, err := c.Acquire("k", build)
	if err != nil || hit1 {
		t.Fatalf("first acquire: hit=%v err=%v", hit1, err)
	}
	v2, rel2, hit2, err := c.Acquire("k", build)
	if err != nil || !hit2 {
		t.Fatalf("second acquire: hit=%v err=%v", hit2, err)
	}
	if v1 != v2 {
		t.Fatal("hit returned a different value")
	}
	if n := atomic.LoadInt32(&builds); n != 1 {
		t.Fatalf("build ran %d times", n)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.BytesSaved != 100 || st.Live != 1 || st.LiveBytes != 100 {
		t.Fatalf("stats: %+v", st)
	}
	rel1()
	rel1() // double release is a no-op
	if st := c.Stats(); st.Live != 1 {
		t.Fatalf("entry evicted while still held: %+v", st)
	}
	rel2()
	st = c.Stats()
	if st.Live != 0 || st.LiveBytes != 0 || st.Evictions != 1 {
		t.Fatalf("after full release: %+v", st)
	}
	// Re-acquire after eviction rebuilds.
	_, rel3, hit3, err := c.Acquire("k", build)
	if err != nil || hit3 {
		t.Fatalf("post-eviction acquire: hit=%v err=%v", hit3, err)
	}
	if n := atomic.LoadInt32(&builds); n != 2 {
		t.Fatalf("build ran %d times after eviction", n)
	}
	rel3()
}

func TestCacheConcurrentAcquireBuildsOnce(t *testing.T) {
	c := NewCache()
	var builds int32
	const goroutines = 32
	var wg sync.WaitGroup
	rels := make([]func(), goroutines)
	vals := make([]any, goroutines)
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, release, _, err := c.Acquire("k", func() (any, error) {
				atomic.AddInt32(&builds, 1)
				return &sizedVal{n: 8}, nil
			})
			if err != nil {
				t.Errorf("acquire: %v", err)
				return
			}
			vals[i], rels[i] = v, release
		}(i)
	}
	wg.Wait()
	if n := atomic.LoadInt32(&builds); n != 1 {
		t.Fatalf("build ran %d times under contention", n)
	}
	for i := 1; i < goroutines; i++ {
		if vals[i] != vals[0] {
			t.Fatal("holders saw different values")
		}
	}
	for _, r := range rels {
		if r != nil {
			r()
		}
	}
	if st := c.Stats(); st.Live != 0 || st.LiveBytes != 0 {
		t.Fatalf("leak after concurrent release: %+v", st)
	}
}

func TestCacheBuildErrorPropagates(t *testing.T) {
	c := NewCache()
	boom := errors.New("boom")
	_, _, _, err := c.Acquire("k", func() (any, error) { return nil, boom })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	// Entry must be gone: next acquire rebuilds and can succeed.
	v, release, hit, err := c.Acquire("k", func() (any, error) { return &sizedVal{n: 1}, nil })
	if err != nil || hit || v == nil {
		t.Fatalf("acquire after failed build: hit=%v err=%v", hit, err)
	}
	release()
	if st := c.Stats(); st.Live != 0 {
		t.Fatalf("leak: %+v", st)
	}
}

// TestCacheBuildPanicFailsWaiters: a build that panics re-panics on its
// caller, a waiter that joined mid-build gets an error instead of blocking
// forever, and the next Acquire builds again.
func TestCacheBuildPanicFailsWaiters(t *testing.T) {
	c := NewCache()
	building, unblock := make(chan struct{}), make(chan struct{})
	panicked := make(chan interface{})
	go func() {
		defer func() { panicked <- recover() }()
		c.Acquire("k", func() (any, error) {
			close(building)
			<-unblock
			panic("build blew up")
		})
	}()
	<-building
	waiterErr := make(chan error)
	go func() {
		_, _, _, err := c.Acquire("k", func() (any, error) { return &sizedVal{n: 1}, nil })
		waiterErr <- err
	}()
	// Let the build fail only once the waiter holds a ref on its entry.
	for {
		c.mu.Lock()
		refs := c.entries["k"].refs
		c.mu.Unlock()
		if refs == 2 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(unblock)
	if r := <-panicked; r != "build blew up" {
		t.Fatalf("builder recovered %v, want its own panic", r)
	}
	select {
	case err := <-waiterErr:
		if err == nil || !strings.Contains(err.Error(), "build blew up") {
			t.Fatalf("waiter err = %v, want the build's panic", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter still blocked after the build panicked")
	}
	v, release, hit, err := c.Acquire("k", func() (any, error) { return &sizedVal{n: 1}, nil })
	if err != nil || hit || v == nil {
		t.Fatalf("acquire after panicked build: hit=%v err=%v", hit, err)
	}
	release()
	if st := c.Stats(); st.Live != 0 || st.Misses != 2 {
		t.Fatalf("stats after rebuild: %+v", st)
	}
}

func TestCacheKillCyclesNoLeak(t *testing.T) {
	c := NewCache()
	for cycle := 0; cycle < 100; cycle++ {
		// Two holders join, both "die" (release) in arbitrary order.
		_, r1, _, err := c.Acquire("k", func() (any, error) { return &sizedVal{n: 1 << 20}, nil })
		if err != nil {
			t.Fatal(err)
		}
		_, r2, hit, err := c.Acquire("k", func() (any, error) { return &sizedVal{n: 1 << 20}, nil })
		if err != nil || !hit {
			t.Fatalf("cycle %d: hit=%v err=%v", cycle, hit, err)
		}
		if cycle%2 == 0 {
			r1()
			r2()
		} else {
			r2()
			r1()
		}
	}
	st := c.Stats()
	if st.Live != 0 || st.LiveBytes != 0 {
		t.Fatalf("shared bytes leaked after 100 kill cycles: %+v", st)
	}
	if st.Evictions != 100 {
		t.Fatalf("evictions = %d, want 100", st.Evictions)
	}
}
