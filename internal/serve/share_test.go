package serve

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"iolap/internal/agg"
	"iolap/internal/core"
	"iolap/internal/exec"
	"iolap/internal/expr"
	"iolap/internal/rel"
	"iolap/internal/sql"
)

// dimDB extends the sessions fixture with a small static "cdns" dimension
// table so queries can join the streamed fact table against a static build
// side — the shape the shared-state cache deduplicates across sessions.
func dimDB(n int, seed int64) (*exec.DB, map[string]bool) {
	db := testDB(n, seed)
	cdns := rel.NewRelation(rel.Schema{
		{Name: "cdn", Type: rel.KString},
		{Name: "region", Type: rel.KString},
	})
	regions := []string{"us-east", "us-west", "europe", "apac"}
	for i := 0; i < 8; i++ {
		cdns.Append(rel.String("c"+string(rune('0'+i))), rel.String(regions[i%len(regions)]))
	}
	db.Put("cdns", cdns)
	return db, map[string]bool{"sessions": true}
}

// Join queries that share one build side (scan of cdns keyed on cdn) but
// differ in SQL text: alias names, filters, aggregate, and group-by column.
// The fingerprinter must land them all on the same cache entry.
var joinQueries = []string{
	`SELECT c.region, SUM(s.play_time) AS spt FROM sessions s, cdns c
		WHERE s.cdn = c.cdn GROUP BY c.region`,
	`SELECT d.region, AVG(x.play_time) AS apt FROM sessions x, cdns d
		WHERE x.cdn = d.cdn GROUP BY d.region`,
	`SELECT c.region, COUNT(*) AS n FROM sessions s, cdns c
		WHERE s.cdn = c.cdn AND s.buffer_time > 5 GROUP BY c.region`,
}

// Outer queries sharing one inner aggregate subquery over the streamed
// table (the §4 nested-aggregate shape). Sharing the inner state requires
// matching sampling parameters, so these run under one seed.
var innerAggQueries = []string{
	`SELECT AVG(play_time) AS apt FROM sessions WHERE buffer_time > (SELECT AVG(buffer_time) FROM sessions)`,
	`SELECT COUNT(*) AS n FROM sessions WHERE buffer_time <= (SELECT AVG(buffer_time) FROM sessions)`,
	`SELECT cdn, SUM(play_time) AS spt FROM sessions WHERE buffer_time > (SELECT AVG(buffer_time) FROM sessions) GROUP BY cdn`,
}

// TestSharedJoinBuildEquivalence is the tentpole contract for shared join
// state: 8 concurrent sessions over 3 join-query variants — different SQL
// text, aliases, filters, seeds, and Workers {1,4} — share one frozen build
// store, and every trajectory stays bit-identical to a solo run with fully
// private state.
func TestSharedJoinBuildEquivalence(t *testing.T) {
	const batches = 5
	db, streamed := dimDB(1000, 21)
	type slot struct {
		query string
		opts  SessionOptions
	}
	var slots []slot
	for i := 0; i < 8; i++ {
		slots = append(slots, slot{
			query: joinQueries[i%len(joinQueries)],
			opts:  SessionOptions{Trials: 10, Seed: uint64(500 + i), Workers: 1 + 3*(i%2)},
		})
	}
	oracles := make([][]*Update, len(slots))
	for i, sl := range slots {
		oracles[i] = soloTrajectoryStreamed(t, db, streamed, sl.query, sl.opts, batches)
	}

	eng := NewEngine(db, streamed, nil, nil, Config{Batches: batches})
	defer eng.Close()
	got := make([][]*Update, len(slots))
	errs := make([]error, len(slots))
	var wg sync.WaitGroup
	wg.Add(len(slots))
	for i, sl := range slots {
		go func(i int, sl slot) {
			defer wg.Done()
			s, err := eng.Open(sl.query, sl.opts)
			if err != nil {
				errs[i] = err
				return
			}
			got[i] = drain(s)
			errs[i] = s.Err()
		}(i, sl)
	}
	wg.Wait()
	for i := range slots {
		if errs[i] != nil {
			t.Fatalf("slot %d: %v", i, errs[i])
		}
		if !BitIdentical(got[i], oracles[i]) {
			t.Errorf("slot %d (workers=%d): shared-build trajectory differs from solo run",
				i, slots[i].opts.Workers)
		}
	}
	st := eng.Snapshot()
	// The first open builds the frozen store; opens that raced it either hit
	// the entry or waited for its build. At least one session must have hit.
	if st.SharedStateHits == 0 {
		t.Error("no shared-state hits across 8 overlapping join sessions")
	}
	if st.SharedStateHits > 0 && st.SharedStateBytesSaved <= 0 {
		t.Errorf("hits=%d but bytes saved=%d", st.SharedStateHits, st.SharedStateBytesSaved)
	}
}

// TestSharedInnerAggEquivalence: sessions whose outer queries differ but
// contain the same inner aggregate subquery share its state; staggered
// opens, a mid-stream cancel, and a kill (abandon without drain) leave every
// surviving trajectory bit-identical to its solo oracle.
func TestSharedInnerAggEquivalence(t *testing.T) {
	const batches = 5
	db, streamed := dimDB(900, 13)
	opts := func(w int) SessionOptions {
		return SessionOptions{Trials: 12, Seed: 77, Workers: w}
	}

	eng := NewEngine(db, streamed, nil, nil, Config{Batches: batches})
	defer eng.Close()

	// Wave 1: two sessions with different outer queries around the same
	// inner aggregate, plus one that is cancelled after its first update —
	// one cohort, held before batch 1 so the cancel lands at that boundary.
	release := holdBeforeBatch(eng, "sessions", 1)
	defer release()
	s0, err := eng.Open(innerAggQueries[0], opts(1))
	if err != nil {
		t.Fatal(err)
	}
	s1, err := eng.Open(innerAggQueries[1], opts(4))
	if err != nil {
		t.Fatal(err)
	}
	sc, err := eng.Open(innerAggQueries[2], opts(1))
	if err != nil {
		t.Fatal(err)
	}
	startScan(eng, "sessions")
	var cancelled []*Update
	if sc.Next() {
		cancelled = append(cancelled, sc.Update())
	}
	sc.Cancel()

	// Wave 2 opens while wave 1 is held mid-pass: one drained, one killed
	// outright.
	s3, err := eng.Open(innerAggQueries[2], opts(4))
	if err != nil {
		t.Fatal(err)
	}
	sk, err := eng.Open(innerAggQueries[0], opts(1))
	if err != nil {
		t.Fatal(err)
	}
	release()
	sk.Close() // kill: no updates consumed

	cancelled = append(cancelled, drain(sc)...)
	if !errors.Is(sc.Err(), ErrCancelled) {
		t.Errorf("cancelled session err = %v, want ErrCancelled", sc.Err())
	}
	oracleC := soloTrajectoryStreamed(t, db, streamed, innerAggQueries[2], opts(1), batches)
	if len(cancelled) != 1 || !BitIdentical(cancelled, oracleC[:len(cancelled)]) {
		t.Errorf("cancelled session delivered %d updates, want the 1-update prefix of its solo run", len(cancelled))
	}

	for i, pair := range []struct {
		s     *Session
		query string
		w     int
	}{{s0, innerAggQueries[0], 1}, {s1, innerAggQueries[1], 4}, {s3, innerAggQueries[2], 4}} {
		got := drain(pair.s)
		if err := pair.s.Err(); err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
		oracle := soloTrajectoryStreamed(t, db, streamed, pair.query, opts(pair.w), batches)
		if !BitIdentical(got, oracle) {
			t.Errorf("session %d: trajectory differs from solo run", i)
		}
	}
	if st := eng.Snapshot(); st.SharedStateHits == 0 {
		t.Error("no shared-state hits across sessions sharing an inner aggregate")
	}
}

// TestSharedStateKillCyclesNoLeak: 100 cycles of open/kill over sessions
// holding shared state — every cycle must return the cache to zero live
// bytes. A single missed release would accumulate immediately.
func TestSharedStateKillCyclesNoLeak(t *testing.T) {
	db, streamed := dimDB(400, 5)
	eng := NewEngine(db, streamed, nil, nil, Config{Batches: 4})
	defer eng.Close()
	for i := 0; i < 100; i++ {
		a, err := eng.Open(joinQueries[i%len(joinQueries)], SessionOptions{Trials: 5, Seed: uint64(i)})
		if err != nil {
			t.Fatalf("cycle %d: %v", i, err)
		}
		b, err := eng.Open(joinQueries[(i+1)%len(joinQueries)], SessionOptions{Trials: 5, Seed: uint64(i + 1)})
		if err != nil {
			t.Fatalf("cycle %d: %v", i, err)
		}
		switch i % 3 {
		case 0: // kill both mid-flight
			a.Close()
			b.Close()
		case 1: // kill one, drain the other
			a.Close()
			drain(b)
		default: // drain both
			drain(a)
			drain(b)
		}
		if n := eng.SessionCount(); n != 0 {
			t.Fatalf("cycle %d: %d sessions leaked", i, n)
		}
		if lb := eng.SharedLiveBytes(); lb != 0 {
			t.Fatalf("cycle %d: %d shared bytes leaked", i, lb)
		}
	}
	if st := eng.Snapshot(); st.SharedStateHits == 0 {
		t.Error("kill-cycle workload never hit the shared cache")
	}
}

// TestDisableStateSharing: the escape hatch really disables the cache, and
// results stay bit-identical to the shared path (sharing is memory-only).
func TestDisableStateSharing(t *testing.T) {
	const batches = 4
	db, streamed := dimDB(600, 17)
	opts := SessionOptions{Trials: 8, Seed: 3}

	run := func(disable bool) ([]*Update, Stats) {
		eng := NewEngine(db, streamed, nil, nil, Config{Batches: batches, DisableStateSharing: disable})
		defer eng.Close()
		s1, err := eng.Open(joinQueries[0], opts)
		if err != nil {
			t.Fatal(err)
		}
		s2, err := eng.Open(joinQueries[1], opts)
		if err != nil {
			t.Fatal(err)
		}
		got := drain(s1)
		drain(s2)
		if err := s1.Err(); err != nil {
			t.Fatal(err)
		}
		return got, eng.Snapshot()
	}

	shared, sharedStats := run(false)
	private, privateStats := run(true)
	if !BitIdentical(shared, private) {
		t.Error("shared and private runs diverged")
	}
	if privateStats.SharedStateHits != 0 || privateStats.SharedStateBytesSaved != 0 {
		t.Errorf("disabled sharing recorded hits=%d saved=%d",
			privateStats.SharedStateHits, privateStats.SharedStateBytesSaved)
	}
	_ = sharedStats
}

// soloTrajectoryStreamed is soloTrajectory with an explicit streamed-table
// map, for fixtures whose DB carries static dimension tables. The oracle
// runs on a dedicated core engine with fully private state — no cache.
func soloTrajectoryStreamed(t *testing.T, db *exec.DB, streamed map[string]bool, query string, opts SessionOptions, batches int) []*Update {
	t.Helper()
	stmt, err := sql.Parse(query)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	cat := sql.NewCatalog()
	for _, name := range db.Tables() {
		r, _ := db.Get(name)
		cat.AddTable(name, r.Schema, streamed[name])
	}
	node, pp, err := sql.NewPlanner(cat, expr.NewRegistry(), agg.NewRegistry()).Plan(stmt)
	if err != nil {
		t.Fatalf("plan: %v", err)
	}
	eng, err := core.NewEngine(node, db, core.Options{
		Batches: batches, Mode: opts.Mode, Trials: opts.Trials, Slack: opts.Slack,
		Seed: opts.Seed, Workers: opts.Workers,
	})
	if err != nil {
		t.Fatalf("core engine: %v", err)
	}
	defer eng.Close()
	var out []*Update
	for !eng.Done() {
		u, err := eng.Step()
		if err != nil {
			t.Fatalf("solo step: %v", err)
		}
		out = append(out, convertUpdate(u, pp))
	}
	return out
}

// TestSharingKeepsShortCircuitOrder: AND stops at its first false operand,
// so `buffer_time >= 2 AND BOOM(buffer_time) > 0` never calls BOOM below 2,
// while its twin with the operands swapped does, and fails. The two inner
// aggregates must not share state: in either open order, the original
// delivers every update and the twin fails with BOOM's panic.
func TestSharingKeepsShortCircuitOrder(t *testing.T) {
	const batches = 4
	const q = `SELECT cdn, COUNT(*) AS n FROM sessions WHERE play_time > (SELECT AVG(play_time) FROM sessions WHERE %s) GROUP BY cdn`
	original := fmt.Sprintf(q, "buffer_time >= 2 AND BOOM(buffer_time) > 0")
	twin := fmt.Sprintf(q, "BOOM(buffer_time) > 0 AND buffer_time >= 2")
	funcs := expr.NewRegistry()
	err := funcs.Register(expr.ScalarFunc{Name: "BOOM", MinArgs: 1, MaxArgs: 1, RetType: rel.KFloat,
		Fn: func(args []rel.Value) rel.Value {
			defer expr.GuardUDF("BOOM")
			if args[0].Float() < 2 {
				panic("below 2")
			}
			return args[0]
		}})
	if err != nil {
		t.Fatal(err)
	}
	db := testDB(600, 9)
	opts := SessionOptions{Trials: 8, Seed: 3}
	for _, twinFirst := range []bool{false, true} {
		eng := NewEngine(db, testStreamed, funcs, nil, Config{Batches: batches})
		holdScans(eng, "sessions")
		order := []string{original, twin}
		if twinFirst {
			order[0], order[1] = twin, original
		}
		var sessions [2]*Session
		for i, query := range order {
			if sessions[i], err = eng.Open(query, opts); err != nil {
				eng.Close()
				t.Fatal(err)
			}
		}
		startScan(eng, "sessions")
		for i, s := range sessions {
			got := drain(s)
			var p expr.UDFPanic
			switch {
			case order[i] == twin && !(errors.As(s.Err(), &p) && p.Func == "BOOM"):
				t.Errorf("twinFirst=%v: twin ended with %v after %d updates, want BOOM's panic", twinFirst, s.Err(), len(got))
			case order[i] == original && (s.Err() != nil || len(got) != batches):
				t.Errorf("twinFirst=%v: original ended with %v after %d updates, want %d updates", twinFirst, s.Err(), len(got), batches)
			}
		}
		eng.Close()
	}
}
