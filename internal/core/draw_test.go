package core

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"iolap/internal/delta"
	"iolap/internal/exec"
	"iolap/internal/plan"
	"iolap/internal/rel"
	"iolap/internal/share"
)

// knuthPoisson1 is the per-draw reference of the weight stream: one Poisson(1)
// variate by Knuth's method, one SplitMix64 mix per uniform.
func knuthPoisson1(state *uint64) float64 {
	const expNeg1 = 0.36787944117144233
	k, prod := 0, 1.0
	for {
		*state += 0x9e3779b97f4a7c15
		z := *state
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		prod *= (float64(z>>11) + 0.5) / (1 << 53)
		if prod <= expNeg1 {
			return float64(k)
		}
		if k++; k > 64 {
			return float64(k)
		}
	}
}

// knuthWeights is the reference weight vector of tuple index of a streamed
// table: the stream is seeded from the engine seed salted by the table name.
func knuthWeights(seed uint64, table string, index uint64, trials int) []float64 {
	for _, ch := range table {
		seed = seed*131 + uint64(ch)
	}
	state := seed ^ index*0x9e3779b97f4a7c15
	state += 0x9e3779b97f4a7c15
	state = (state ^ (state >> 30)) * 0xbf58476d1ce4e5b9
	state = (state ^ (state >> 27)) * 0x94d049bb133111eb
	state ^= state >> 31
	w := make([]float64, trials)
	for b := range w {
		w[b] = knuthPoisson1(&state)
	}
	return w
}

// tapOp records, per step, the rows its operator emits.
type tapOp struct {
	operator
	steps [][]delta.Row
}

func (t *tapOp) step(bc *batchContext) (output, error) {
	out, err := t.operator.step(bc)
	t.steps = append(t.steps, append(append([]delta.Row(nil), out.news...), out.unc...))
	return out, err
}

// tapChildren interposes tap between op and each of its children.
func tapChildren(op operator, tap func(operator) operator) {
	switch o := op.(type) {
	case *opSelect:
		o.child = tap(o.child)
	case *opProject:
		o.child = tap(o.child)
	case *opAgg:
		o.child = tap(o.child)
	case *opSink:
		o.child = tap(o.child)
	case *opUnion:
		o.l, o.r = tap(o.l), tap(o.r)
	case *opJoin:
		o.l, o.r = tap(o.l), tap(o.r)
	}
}

// TestSelectDrawsSurvivorWeights: a select directly over a streamed weighted
// scan draws the weights of the rows it keeps, and the scan draws none; a join
// of that scan with a complete side draws for the rows it emits; every other
// weighted scan draws for all its rows. Either way every row leaving the
// drawing operator carries the Knuth reference vector of its tuple's global
// index, on the vectorized and row branches, at any worker count and cutover.
func TestSelectDrawsSurvivorWeights(t *testing.T) {
	// Sorted by buffer_time, the six streamed batches of 40 rows run from
	// nothing surviving "buffer_time > cut" to everything surviving it.
	sorted := testDB(240, 11)
	sortSessionsByBufferTime(sorted)
	sessions, _ := sorted.Get("sessions")
	cut := sessions.Tuples[100].Vals[1].Float()
	cases := []struct {
		name       string
		query      string
		sorted     bool
		selectDraw bool // some select draws for its scan
		joinDraw   bool // some join draws for its scan
		scanDraw   bool // some scan draws for itself
	}{
		{"sorted_cut", fmt.Sprintf(`SELECT cdn, SUM(play_time) AS s FROM sessions WHERE buffer_time > %v GROUP BY cdn`, cut),
			true, true, false, false},
		// Two selects over two scans of one table: a batch where the first
		// keeps nothing must leave no slab for the second to slice.
		{"sorted_cut_union", fmt.Sprintf(`SELECT play_time AS v FROM sessions WHERE buffer_time > %v
			UNION ALL SELECT buffer_time AS v FROM sessions WHERE cdn = 'east'`, cut),
			true, true, false, false},
		{"flat_filter_agg", theoremQuery(t, "flat_filter_agg"), false, true, false, false},
		{"union_all", theoremQuery(t, "union_all"), false, true, false, false},
		{"flat_group_by", theoremQuery(t, "flat_group_by"), false, false, false, true},
		// The join tops its scan's filter chain: it draws for the rows it
		// emits, each session once (every cdn has one region).
		{"join_dim_group", theoremQuery(t, "join_dim_group"), false, false, true, false},
		{"nested_correlated", theoremQuery(t, "nested_correlated"), false, false, false, true},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			for _, opts := range drawConfigs() {
				name := fmt.Sprintf("w%d/novec=%v/cutover=%d", opts.Workers, opts.NoVectorize, opts.cutover)
				checkDraws(t, name, c.query, c.sorted, [3]bool{c.selectDraw, c.joinDraw, c.scanDraw}, opts)
			}
		})
	}
}

// checkDraws runs query and checks which operators draw, against want: some
// select draws, some join draws, some scan draws for itself. The drawing
// operators' rows, and the drawing scans', must carry the reference vectors
// of the session in their first column.
func checkDraws(t *testing.T, name, query string, sorted bool, want [3]bool, opts drawConfig) {
	t.Helper()
	db := testDB(240, 11)
	if sorted {
		sortSessionsByBufferTime(db)
	}
	sessions, _ := db.Get("sessions")
	index := map[string]uint64{} // session id -> global tuple index
	for i, tp := range sessions.Tuples {
		index[tp.Vals[0].Str()] = uint64(i)
	}
	eng, err := opts.newEngine(planQuery(t, query), db)
	if err != nil {
		t.Fatalf("%s: engine: %v", name, err)
	}
	// drawTaps[i] sits above the drawer whose scan lateTaps[i] taps.
	var scanTaps, drawTaps, lateTaps []*tapOp
	selects, joins := 0, 0
	for _, op := range eng.comp.ops {
		tapChildren(op, func(child operator) operator {
			tp := &tapOp{operator: child}
			switch o := child.(type) {
			case *opScan:
				switch {
				case o.poisson == nil:
					return child
				case o.lateDraw:
					lateTaps = append(lateTaps, tp)
				default:
					scanTaps = append(scanTaps, tp)
				}
			case *opSelect:
				if o.draw == nil {
					return child
				}
				selects++
				drawTaps = append(drawTaps, tp)
			case *opJoin:
				if o.draw == nil {
					return child
				}
				joins++
				drawTaps = append(drawTaps, tp)
			default:
				return child
			}
			return tp
		})
	}
	if _, err := eng.Run(); err != nil {
		t.Fatalf("%s: run: %v", name, err)
	}
	if got := [3]bool{selects > 0, joins > 0, len(scanTaps) > 0}; got != want || len(lateTaps) != len(drawTaps) {
		t.Fatalf("%s: %d drawing selects and %d drawing joins over %d late scans, %d drawing scans; want selects, joins, scans %v",
			name, selects, joins, len(lateTaps), len(scanTaps), want)
	}
	for _, tp := range lateTaps {
		for _, rows := range tp.steps {
			for _, r := range rows {
				if r.W != nil {
					t.Fatalf("%s: a scan below a drawing operator emitted weights", name)
				}
			}
		}
	}
	var none, all bool // some batch dropped every row / kept every row
	for i, tp := range append(drawTaps, scanTaps...) {
		for s, rows := range tp.steps {
			if i < len(drawTaps) {
				in := len(lateTaps[i].steps[s])
				none = none || (in > 0 && len(rows) == 0)
				all = all || (in > 0 && len(rows) == in)
			}
			for _, r := range rows {
				want := knuthWeights(opts.Seed, "sessions", index[r.Vals[0].Str()], opts.Trials)
				if len(r.W) != len(want) {
					t.Fatalf("%s: row %v has %d weights, want %d", name, r.Vals[0], len(r.W), len(want))
				}
				for b := range want {
					if math.Float64bits(r.W[b]) != math.Float64bits(want[b]) {
						t.Fatalf("%s: row %v trial %d: weight %v, reference %v", name, r.Vals[0], b, r.W[b], want[b])
					}
				}
			}
		}
	}
	if sorted && !(none && all) {
		t.Fatalf("%s: want a batch where no row survives (%v) and one where every row does (%v)", name, none, all)
	}
}

// joinDrawCase is a join of the streamed sessions with static dimensions
// whose filter chain ends in a late draw. cross is a conjunct over both sides
// of a join: it stays above the joins, so with it a select tops the chain and
// draws through the joins, and without it the top join draws.
type joinDrawCase struct {
	name, query, cross string
	prep               func(*exec.DB) // fixture rewrite, if any
	shared             bool
	none, recoveries   bool // want a batch that keeps nothing / a recovery
}

// joinDrawCases have the streamed side left, right (batch 1 builds on the
// streamed rows), matched 1:n, two joins deep, against a frozen shared build
// side, and under a nested query whose sorted arrival forces §5.1 recoveries;
// sorted arrival with a cut also gives batches where the drawer keeps
// nothing. In repeats_fill_batch a 1:n join hands the drawer exactly a batch's
// count of rows, each east session twice: that draw must not become the
// table's slab for the whole-batch scan stepping after it, so its cross
// conjunct keeps every row.
func joinDrawCases(t *testing.T) []joinDrawCase {
	sorted := testDB(240, 11)
	sortSessionsByBufferTime(sorted)
	sessions, _ := sorted.Get("sessions")
	cut := sessions.Tuples[100].Vals[1].Float()
	late := map[string]string{}
	for _, q := range lateJoinQueries {
		late[q.name] = q.query
	}
	const sc, st = `(c.region = 'us-east' OR s.play_time > 200)`, `(t.tag = 'video' OR s.play_time > 200)`
	return []joinDrawCase{
		{name: "pending_l_cut", query: fmt.Sprintf(`SELECT c.region, SUM(s.play_time) AS spt FROM sessions s, cdns c
			WHERE s.cdn = c.cdn AND c.region <> 'europe' AND s.buffer_time > %v GROUP BY c.region`, cut),
			cross: sc, prep: sortSessionsByBufferTime, none: true},
		{name: "pending_l", query: late["pending_l"], cross: sc},
		{name: "pending_r", query: late["pending_r"], cross: sc},
		{name: "one_to_many", query: late["one_to_many"], cross: st},
		{name: "two_joins", query: late["two_joins"], cross: `(c.region = 'us-east' OR t.tag = 'live' OR s.play_time > 200)`},
		{name: "shared_build", query: late["pending_l"], cross: sc, shared: true},
		{name: "nested_recovery", query: `SELECT AVG(s.play_time) AS apt FROM sessions s, cdns c
			WHERE s.cdn = c.cdn AND c.region <> 'europe' AND s.buffer_time > (SELECT AVG(buffer_time) FROM sessions)`,
			cross: sc, prep: sortSessionsByBufferTime, recoveries: true},
		{name: "repeats_fill_batch", query: `SELECT s.session_id AS id, s.play_time AS v FROM sessions s, tags t
			WHERE s.cdn = t.cdn AND s.cdn = 'east' UNION ALL SELECT session_id AS id, buffer_time AS v FROM sessions`,
			cross: `t.tag <> s.session_id`, prep: alternateEastWest},
	}
}

// TestSelectDrawsThroughJoins: a certain select over a chain of joins, and of
// the selects pushed below them, down to a streamed weighted scan draws the
// weights of the joined rows it keeps, and the scan draws none (compile's
// lateScan, output.prov). Every survivor carries the Knuth reference vector of
// the session it was joined from.
func TestSelectDrawsThroughJoins(t *testing.T) {
	for _, c := range joinDrawCases(t) {
		c.query = strings.Replace(c.query, "WHERE ", "WHERE "+c.cross+" AND ", 1)
		t.Run(c.name, func(t *testing.T) { checkJoinDrawCase(t, c, false) })
	}
}

// TestJoinDrawsChainTop: without a filter above the joins, the join that tops
// the chain draws the weights of the rows it emits, the selects pushed below
// it and the scan draw none, and every emitted row carries the Knuth
// reference vector of the session it was joined from.
func TestJoinDrawsChainTop(t *testing.T) {
	for _, c := range joinDrawCases(t) {
		t.Run(c.name, func(t *testing.T) { checkJoinDrawCase(t, c, true) })
	}
}

// checkJoinDrawCase runs c in every drawConfigs cell, with a join as the
// drawer when join is set and a select otherwise.
func checkJoinDrawCase(t *testing.T, c joinDrawCase, join bool) {
	var none bool
	recoveries := 0
	for _, opts := range drawConfigs() {
		n, rec := checkJoinDraws(t, c.query, c.prep, c.shared, join, opts)
		none = none || n
		recoveries += rec
	}
	if c.none && !none {
		t.Error("no batch where the drawer keeps nothing")
	}
	if c.recoveries && recoveries == 0 {
		t.Error("sorted arrival forced no recovery")
	}
}

// alternateEastWest makes the sessions' cdn alternate east, west: a batch of
// an even row count holds as many east sessions as west ones.
func alternateEastWest(db *exec.DB) {
	sessions, _ := db.Get("sessions")
	for i, tp := range sessions.Tuples {
		tp.Vals[3] = rel.String([]string{"east", "west"}[i%2])
	}
}

// checkJoinDraws runs query and checks that a join (join set) or a select
// over a join draws through a late join, that its scan and the late selects
// below it emit no weights, and that every row the drawer emits, and every
// row of a scan that weighs its whole batch, carries its session's reference
// vector. It reports whether a step of the drawer kept nothing of a non-empty
// scan batch, and the engine's recoveries.
func checkJoinDraws(t *testing.T, query string, prep func(*exec.DB), shared, join bool, opts drawConfig) (none bool, recoveries int) {
	t.Helper()
	name := fmt.Sprintf("w%d/novec=%v/cutover=%d", opts.Workers, opts.NoVectorize, opts.cutover)
	db := testDB(240, 11)
	if prep != nil {
		prep(db)
	}
	sessions, _ := db.Get("sessions")
	index := map[string]uint64{} // session id -> global tuple index
	for i, tp := range sessions.Tuples {
		index[tp.Vals[0].Str()] = uint64(i)
	}
	if shared {
		opts.SharedState = share.NewCache()
	}
	eng, err := opts.newEngine(planQuery(t, query), db)
	if err != nil {
		t.Fatalf("%s: engine: %v", name, err)
	}
	defer eng.Close()
	throughJoin, sharedLate := false, false
	var scanTap, drawTap *tapOp
	var wholeTaps, passTaps []*tapOp
	id := -1 // session_id's column in the drawer's rows
	drawer := func(child operator, schema rel.Schema) operator {
		drawTap = &tapOp{operator: child}
		for i, col := range schema {
			if col.Name == "session_id" {
				id = i
			}
		}
		return drawTap
	}
	for _, op := range eng.comp.ops {
		if j, ok := op.(*opJoin); ok && j.late != lateNone {
			throughJoin = true
			sharedLate = sharedLate || j.sharedR
		}
		tapChildren(op, func(child operator) operator {
			switch o := child.(type) {
			case *opScan:
				switch {
				case o.lateDraw:
					scanTap = &tapOp{operator: child}
					return scanTap
				case o.poisson != nil:
					tp := &tapOp{operator: child}
					wholeTaps = append(wholeTaps, tp)
					return tp
				}
			case *opSelect:
				if o.late {
					tp := &tapOp{operator: child}
					passTaps = append(passTaps, tp)
					return tp
				}
				if _, isJoin := o.child.(*opJoin); isJoin && o.draw != nil && !join {
					return drawer(child, o.node.Schema())
				}
			case *opJoin:
				if o.draw != nil && join {
					return drawer(child, o.node.Schema())
				}
			}
			return child
		})
	}
	kind := map[bool]string{false: "select", true: "join"}[join]
	if !throughJoin || drawTap == nil || scanTap == nil || id < 0 {
		t.Fatalf("%s: no %s draws through a join (late join %v, drawing %s %v, late scan %v)",
			name, kind, throughJoin, kind, drawTap != nil, scanTap != nil)
	}
	if shared && !sharedLate {
		t.Fatalf("%s: the late join does not probe a frozen shared build side", name)
	}
	if _, err := eng.Run(); err != nil {
		t.Fatalf("%s: run: %v", name, err)
	}
	for _, tp := range append([]*tapOp{scanTap}, passTaps...) {
		for _, rows := range tp.steps {
			for _, r := range rows {
				if r.W != nil {
					t.Fatalf("%s: %s below the drawing %s emitted weights", name, tp.operator.kind(), kind)
				}
			}
		}
	}
	for s, rows := range scanTap.steps {
		none = none || (len(rows) > 0 && len(drawTap.steps[s]) == 0)
	}
	check := func(tp *tapOp, id int) {
		for _, rows := range tp.steps {
			for _, r := range rows {
				want := knuthWeights(opts.Seed, "sessions", index[r.Vals[id].Str()], opts.Trials)
				if len(r.W) != len(want) {
					t.Fatalf("%s: row %v has %d weights, want %d", name, r.Vals, len(r.W), len(want))
				}
				for b := range want {
					if math.Float64bits(r.W[b]) != math.Float64bits(want[b]) {
						t.Fatalf("%s: row %v trial %d: weight %v, reference %v", name, r.Vals, b, r.W[b], want[b])
					}
				}
			}
		}
	}
	check(drawTap, id)
	for _, tp := range wholeTaps {
		check(tp, 0)
	}
	return none, eng.TotalRecoveries()
}

// slabTap records, per step, the batch base and the rows of a scan that
// weighs its whole batch.
type slabTap struct {
	*opScan
	bases []uint64
	steps [][]delta.Row
}

func (t *slabTap) step(bc *batchContext) (output, error) {
	out, err := t.opScan.step(bc)
	t.bases = append(t.bases, t.base)
	t.steps = append(t.steps, out.news)
	return out, err
}

// drawConfig is one cell of the slab tests' matrix: the engine's options and
// its parallel cutover (Engine.SetCutover).
type drawConfig struct {
	Options
	cutover int
}

// newEngine builds the cell's engine.
func (c drawConfig) newEngine(root plan.Node, db *exec.DB) (*Engine, error) {
	eng, err := NewEngine(root, db, c.Options)
	if err == nil {
		eng.SetCutover(c.cutover)
	}
	return eng, err
}

// drawConfigs is the execution matrix of the slab tests: worker count, row or
// column path, and the parallel cutover, none of which may show in a weight.
func drawConfigs() []drawConfig {
	var cfgs []drawConfig
	for _, workers := range []int{1, 4} {
		for _, novec := range []bool{false, true} {
			for _, cutover := range []int{0, 1} {
				cfgs = append(cfgs, drawConfig{Options{Mode: ModeIOLAP, Batches: 6, Trials: 25, Seed: 3,
					Workers: workers, NoVectorize: novec}, cutover})
			}
		}
	}
	return cfgs
}

// checkSharedSlabs runs query step by step and checks, for every call a step
// made (a step that recovers makes more than one), that the scans weighing
// their whole batch hold the same vectors — row i of each points at the same
// backing floats — bit-equal to a fresh WeightsInto(base+i), and that every
// survivor of a late-drawing select points at its row's vector in that slab.
// It returns the number of whole-batch scans, the survivors checked, and the
// engine's recoveries.
func checkSharedSlabs(t *testing.T, query string, sorted bool, opts drawConfig) (scans, survivors, recoveries int) {
	t.Helper()
	name := fmt.Sprintf("w%d/novec=%v/cutover=%d/sorted=%v", opts.Workers, opts.NoVectorize, opts.cutover, sorted)
	db := testDB(240, 11)
	if sorted {
		sortSessionsByBufferTime(db)
	}
	eng, err := opts.newEngine(planQuery(t, query), db)
	if err != nil {
		t.Fatalf("%s: engine: %v", name, err)
	}
	var taps []*slabTap
	var sels []*tapOp
	for _, op := range eng.comp.ops {
		tapChildren(op, func(child operator) operator {
			switch o := child.(type) {
			case *opScan:
				if o.poisson != nil && !o.lateDraw {
					tp := &slabTap{opScan: o}
					taps = append(taps, tp)
					return tp
				}
			case *opSelect:
				if o.draw != nil {
					tp := &tapOp{operator: o}
					sels = append(sels, tp)
					return tp
				}
			}
			return child
		})
	}
	if len(taps) == 0 {
		t.Fatalf("%s: no scan weighs its whole batch", name)
	}
	ref := newOpScan(plan.NewScan("sessions", "", nil, true), opts.Options).poisson
	want := make([]float64, opts.Trials)
	for c := 0; !eng.Done(); {
		if _, err := eng.Step(); err != nil {
			t.Fatalf("%s: step: %v", name, err)
		}
		for ; c < len(taps[0].steps); c++ {
			base, full := taps[0].bases[c], taps[0].steps[c]
			for i, r := range full {
				ref.WeightsInto(base+uint64(i), want)
				for b := range want {
					if math.Float64bits(r.W[b]) != math.Float64bits(want[b]) {
						t.Fatalf("%s: call %d row %d trial %d: weight %v, fresh draw %v", name, c, i, b, r.W[b], want[b])
					}
				}
			}
			for k, tp := range taps[1:] {
				if len(tp.steps) != len(taps[0].steps) || tp.bases[c] != base || len(tp.steps[c]) != len(full) {
					t.Fatalf("%s: call %d: scan %d stepped out of line with scan 0", name, c, k+1)
				}
				for i, r := range tp.steps[c] {
					if &r.W[0] != &full[i].W[0] {
						t.Fatalf("%s: call %d: scan %d row %d does not share the batch slab", name, c, k+1, i)
					}
				}
			}
			pos := make(map[string]int, len(full))
			for i, r := range full {
				pos[r.Vals[0].Str()] = i
			}
			for _, sel := range sels {
				for _, r := range sel.steps[c] {
					if i, ok := pos[r.Vals[0].Str()]; !ok || &r.W[0] != &full[i].W[0] {
						t.Fatalf("%s: call %d: select survivor %v is not sliced from the batch slab", name, c, r.Vals[0])
					}
					survivors++
				}
			}
		}
	}
	return len(taps), survivors, eng.TotalRecoveries()
}

// TestScansShareBatchWeights: a streamed table is weighed once per batch.
// The first scan of it that weighs its whole batch draws the slab, and every
// later one slices the same vectors from it (opScan.weigh). The shapes scan
// the table twice, outer and inner: a cross join with a scalar subquery (C1),
// a correlated subquery (C2) and an IN subquery with HAVING (Q18). Sorted
// arrival forces §5.1 replays, whose fresh context draws the merged delta's
// slab once and shares it the same way.
func TestScansShareBatchWeights(t *testing.T) {
	shapes := []struct{ name, query string }{
		{"cross_join", theoremQuery(t, "sbi_nested_scalar")},
		{"correlated", theoremQuery(t, "nested_correlated")},
		{"in_subquery", theoremQuery(t, "nested_in_having")},
	}
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			recoveries := 0
			for _, opts := range drawConfigs() {
				for _, sorted := range []bool{false, true} {
					scans, _, rec := checkSharedSlabs(t, sh.query, sorted, opts)
					if scans < 2 {
						t.Fatalf("%d scans weigh their whole batch, want the outer and the inner one", scans)
					}
					recoveries += rec
				}
			}
			t.Logf("%d recoveries", recoveries)
			if recoveries == 0 {
				t.Error("sorted arrival forced no recovery")
			}
		})
	}
}

// TestSelectSlicesScanSlab: a late-drawing select over one scan of a table
// that another scan weighs in full takes its survivors' vectors from that
// slab and draws none. The outer scan of the scalar subquery below steps
// first (a join steps its left side first) and draws the batch; the inner
// scan's select keeps the 'east' rows and slices their vectors out of it.
func TestSelectSlicesScanSlab(t *testing.T) {
	q := `SELECT AVG(play_time) AS apt FROM sessions
		WHERE buffer_time > (SELECT AVG(buffer_time) FROM sessions WHERE cdn = 'east')`
	for _, opts := range drawConfigs() {
		for _, sorted := range []bool{false, true} {
			if _, survivors, _ := checkSharedSlabs(t, q, sorted, opts); survivors == 0 {
				t.Fatalf("w%d/novec=%v/cutover=%d/sorted=%v: no select survivor was sliced from a slab",
					opts.Workers, opts.NoVectorize, opts.cutover, sorted)
			}
		}
	}
}
