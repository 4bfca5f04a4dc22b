package core

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"iolap/internal/delta"
	"iolap/internal/exec"
	"iolap/internal/plan"
	"iolap/internal/rel"
	"iolap/internal/share"
	"iolap/internal/workload"
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
	// steps holds copies of each step's news and unc rows as emitted, their
	// vectors owned by the tap.
	steps [][]delta.Row
	// alias makes the tap keep each step's output itself in outs, whose rows'
	// vectors the parent fills in place, and arrived, copies of their
	// headers as emitted.
	alias   bool
	outs    []output
	arrived []output
}

func (t *tapOp) step(bc *batchContext) (output, error) {
	out, err := t.operator.step(bc)
	if t.alias {
		t.outs = append(t.outs, out)
		t.arrived = append(t.arrived, output{news: slices.Clone(out.news), unc: slices.Clone(out.unc)})
		return out, err
	}
	rows := append(append([]delta.Row(nil), out.news...), out.unc...)
	t.steps = append(t.steps, ownAll(rows))
	return out, err
}

// ownAll returns the rows with every weight vector copied into one chunk.
func ownAll(rows []delta.Row) []delta.Row {
	n := 0
	for _, r := range rows {
		n += len(r.W)
	}
	c := delta.NewWeightChunk(n)
	for i, r := range rows {
		rows[i] = c.Own(r)
	}
	return rows
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

// children lists op's inputs (tapChildren's order).
func children(op operator) []operator {
	var out []operator
	tapChildren(op, func(c operator) operator { out = append(out, c); return c })
	return out
}

// copies reports whether a join store keeps copies of its rows' vectors.
func copies(h *delta.HashStore) bool { return h != nil && h.Mode() == delta.CopyWeights }

// reader reports whether op reads the vectors of rows it is handed: the
// aggregate folds them, an uncertain select keeps them in its
// non-deterministic set, and a join keeps them in a copy store (weigher).
func reader(op operator) bool {
	switch o := op.(type) {
	case *opAgg:
		return true
	case *opSelect:
		return o.predUncertain
	case *opJoin:
		return copies(o.lStore) || copies(o.rStore)
	}
	return false
}

// readsBelow reports whether op or an operator below it reads vectors.
func readsBelow(op operator) bool {
	switch o := op.(type) {
	case *tapOp:
		return readsBelow(o.operator)
	case *readTap:
		return true
	}
	return reader(op) || slices.ContainsFunc(children(op), readsBelow)
}

// traceDraws makes the engine's weigher list the tuples it draws per step
// (weigher.trace).
func (e *Engine) traceDraws() {
	e.comp.weights.trace = &[][]uint64{}
}

// readCheck follows a run's vectors from the scans to their readers. Every
// reader's inputs are tapped in place (tapOp.alias), and readTap checks them
// right after the reader's step, before the weigher recycles its slab.
type readCheck struct {
	t     *testing.T
	name  string
	eng   *Engine
	table string
	opts  Options
	// index maps a session id to its global tuple index, to check that a
	// row names its own tuple; nil skips the check.
	index map[string]uint64
	// read lists per weigher step the tuples readers filled; at holds, per
	// tuple, the floats the step's first reader got; shared counts reads
	// of a tuple some reader had already read that step.
	read   []map[uint64]bool
	at     []map[uint64]*float64
	shared int
	// scans taps every weighted scan, below taps every other input of an
	// operator that no reader sits below.
	scans, below []*tapOp
	readers      int
}

// readTap runs a reader, then checks what it did with its inputs.
type readTap struct {
	operator
	c   *readCheck
	ins []*tapOp // the reader's inputs, tapped in place
	// schemas are the inputs' schemas, for the session id column.
	schemas []rel.Schema
}

func (r *readTap) step(bc *batchContext) (output, error) {
	out, err := r.operator.step(bc)
	if err == nil {
		r.c.checkStep(r)
	}
	return out, err
}

// newReadCheck taps every operator of eng for checkStep and finish.
func newReadCheck(t *testing.T, name string, eng *Engine, table string, opts Options, index map[string]uint64) *readCheck {
	c := &readCheck{t: t, name: name, eng: eng, table: table, opts: opts, index: index}
	eng.traceDraws()
	ins := map[operator][]*tapOp{}
	for _, op := range eng.comp.ops {
		tapChildren(op, func(child operator) operator {
			if s, ok := child.(*opScan); ok && s.weighted {
				tp := &tapOp{operator: child}
				c.scans = append(c.scans, tp)
				c.below = append(c.below, tp)
				child = tp
			} else if reader(child) {
				c.readers++
				child = &readTap{operator: child, c: c, ins: ins[child], schemas: inputSchemas(child)}
			} else if !readsBelow(child) {
				tp := &tapOp{operator: child}
				c.below = append(c.below, tp)
				child = tp
			}
			if reader(op) {
				tp := &tapOp{operator: child, alias: true}
				ins[op] = append(ins[op], tp)
				child = tp
			}
			return child
		})
	}
	return c
}

// inputSchemas lists the plan schemas of a reader's inputs.
func inputSchemas(op operator) []rel.Schema {
	switch o := op.(type) {
	case *opAgg:
		return []rel.Schema{o.node.Child.Schema()}
	case *opSelect:
		return []rel.Schema{o.node.Child.Schema()}
	case *opJoin:
		return []rel.Schema{o.node.L.Schema(), o.node.R.Schema()}
	}
	return nil
}

// step is the weigher's current step.
func (c *readCheck) step() int { return len(*c.eng.comp.weights.trace) - 1 }

// checkRow holds a vector a reader read to the reference of the row's tuple,
// and the row to its session's tuple.
func (c *readCheck) checkRow(r delta.Row, schema rel.Schema) {
	c.t.Helper()
	want := knuthWeights(c.opts.Seed, c.table, r.Tuple-1, c.opts.Trials)
	if len(r.W) != len(want) {
		c.t.Fatalf("%s: tuple %d read with %d weights, want %d", c.name, r.Tuple-1, len(r.W), len(want))
	}
	for b := range want {
		if math.Float64bits(r.W[b]) != math.Float64bits(want[b]) {
			c.t.Fatalf("%s: tuple %d trial %d: weight %v, reference %v", c.name, r.Tuple-1, b, r.W[b], want[b])
		}
	}
	if c.index == nil {
		return
	}
	if id := slices.IndexFunc(schema, func(col rel.Column) bool { return col.Name == "session_id" }); id >= 0 {
		if got := c.index[r.Vals[id].Str()]; got != r.Tuple-1 {
			c.t.Fatalf("%s: session %v names tuple %d, want %d", c.name, r.Vals[id], r.Tuple-1, got)
		}
	}
}

// filled records that a reader filled row r: the vector must be the
// reference, and a tuple read twice in a step must share its floats.
func (c *readCheck) filled(r delta.Row, schema rel.Schema) {
	c.t.Helper()
	c.checkRow(r, schema)
	s := c.step()
	for len(c.read) <= s {
		c.read = append(c.read, map[uint64]bool{})
		c.at = append(c.at, map[uint64]*float64{})
	}
	if p, ok := c.at[s][r.Tuple]; ok {
		if p != &r.W[0] {
			c.t.Fatalf("%s: two reads of tuple %d in one step hold different floats", c.name, r.Tuple-1)
		}
		c.shared++
	} else {
		c.at[s][r.Tuple] = &r.W[0]
	}
	c.read[s][r.Tuple-1] = true
}

// checkStep checks a reader's inputs after its step. A row that arrived by
// index must now hold the reference vector if the reader reads it, and still
// hold it by index if not; a row that arrived with a vector must hold the
// reference too.
func (c *readCheck) checkStep(r *readTap) {
	c.t.Helper()
	var kept map[uint64]bool // the select's set, which owns copies
	if s, ok := r.operator.(*opSelect); ok {
		kept = map[uint64]bool{}
		for _, row := range s.state.Rows {
			if row.Tuple != 0 {
				c.checkRow(row, r.schemas[0])
				kept[row.Tuple] = true
			}
		}
	}
	for i, in := range r.ins {
		last := len(in.outs) - 1
		live := [][]delta.Row{in.outs[last].news, in.outs[last].unc}
		arrived := [][]delta.Row{in.arrived[last].news, in.arrived[last].unc}
		reads := true
		if j, ok := r.operator.(*opJoin); ok {
			reads = copies([]*delta.HashStore{j.lStore, j.rStore}[i])
		}
		for k := range live {
			for n, row := range live[k] {
				was := arrived[k][n]
				switch {
				case was.W != nil && was.Tuple != 0:
					c.checkRow(row, r.schemas[i])
				case !was.ByIndex():
				case kept != nil:
					if row.W != nil {
						c.t.Fatalf("%s: the select filled a row in place", c.name)
					}
					if kept[row.Tuple] {
						c.read = growRead(c.read, c.step())
						c.read[c.step()][row.Tuple-1] = true
					}
				case reads:
					c.filled(row, r.schemas[i])
				case row.W != nil:
					c.t.Fatalf("%s: a join filled a side whose store keeps no copies", c.name)
				}
			}
		}
	}
}

// growRead extends read to hold step s.
func growRead(read []map[uint64]bool, s int) []map[uint64]bool {
	for len(read) <= s {
		read = append(read, map[uint64]bool{})
	}
	return read
}

// finish checks the run: the rows below every reader carry no vector, and
// in every step the weigher drew each tuple at most once, and exactly the
// tuples the readers read.
func (c *readCheck) finish() {
	c.t.Helper()
	for _, tp := range c.below {
		for _, rows := range tp.steps {
			for _, r := range rows {
				if r.W != nil {
					c.t.Fatalf("%s: a %s below every reader emitted a vector", c.name, tp.operator.kind())
				}
			}
		}
	}
	trace := *c.eng.comp.weights.trace
	c.read = growRead(c.read, len(trace)-1)
	for s, drawn := range trace {
		seen := map[uint64]bool{}
		for _, tup := range drawn {
			if seen[tup] {
				c.t.Fatalf("%s: step %d drew tuple %d twice", c.name, s, tup)
			}
			seen[tup] = true
			if !c.read[s][tup] {
				c.t.Fatalf("%s: step %d drew tuple %d, which no reader read", c.name, s, tup)
			}
		}
		if len(seen) != len(c.read[s]) {
			c.t.Fatalf("%s: step %d drew %d tuples, readers read %d", c.name, s, len(seen), len(c.read[s]))
		}
	}
}

// scanned reports the rows the first weighted scan emitted in weigher step s.
func (c *readCheck) scanned(s int) int { return len(c.scans[0].steps[s]) }

// sessionIndex maps each session id of db to its global tuple index.
func sessionIndex(db *exec.DB) map[string]uint64 {
	sessions, _ := db.Get("sessions")
	index := map[string]uint64{}
	for i, tp := range sessions.Tuples {
		index[tp.Vals[0].Str()] = uint64(i)
	}
	return index
}

// runReads runs query over db in one drawConfigs cell and checks its reads.
func runReads(t *testing.T, query string, db *exec.DB, opts drawConfig) *readCheck {
	t.Helper()
	name := fmt.Sprintf("w%d/novec=%v/cutover=%d", opts.Workers, opts.NoVectorize, opts.cutover)
	eng, err := opts.newEngine(planQuery(t, query), db)
	if err != nil {
		t.Fatalf("%s: engine: %v", name, err)
	}
	defer eng.Close()
	c := newReadCheck(t, name, eng, "sessions", opts.Options, sessionIndex(db))
	if _, err := eng.Run(); err != nil {
		t.Fatalf("%s: run: %v", name, err)
	}
	c.finish()
	return c
}

// TestSelectDrawsSurvivorWeights: a select over a streamed weighted scan
// passes its survivors by index, and only a reader above it draws their
// vectors: no vector is drawn for a row the select drops, or for a row no
// reader reads (a union straight into the sink draws none). Every vector a
// reader gets is the Knuth reference of its tuple's global index, on the
// vectorized and row branches, at any worker count and cutover.
func TestSelectDrawsSurvivorWeights(t *testing.T) {
	// Sorted by buffer_time, the six streamed batches of 40 rows run from
	// nothing surviving "buffer_time > cut" to everything surviving it.
	sorted := testDB(240, 11)
	sortSessionsByBufferTime(sorted)
	sessions, _ := sorted.Get("sessions")
	cut := sessions.Tuples[100].Vals[1].Float()
	cases := []struct {
		name    string
		query   string
		sorted  bool
		readers bool // some operator reads vectors
	}{
		{"sorted_cut", fmt.Sprintf(`SELECT cdn, SUM(play_time) AS s FROM sessions WHERE buffer_time > %v GROUP BY cdn`, cut),
			true, true},
		// Two selects over two scans of one table into the sink: nothing
		// reads a vector, so nothing is drawn.
		{"sorted_cut_union", fmt.Sprintf(`SELECT play_time AS v FROM sessions WHERE buffer_time > %v
			UNION ALL SELECT buffer_time AS v FROM sessions WHERE cdn = 'east'`, cut),
			true, false},
		{"flat_filter_agg", theoremQuery(t, "flat_filter_agg"), false, true},
		{"union_all", theoremQuery(t, "union_all"), false, false},
		{"flat_group_by", theoremQuery(t, "flat_group_by"), false, true},
		// The aggregate reads the join's rows, each session once (every
		// cdn has one region).
		{"join_dim_group", theoremQuery(t, "join_dim_group"), false, true},
		{"nested_correlated", theoremQuery(t, "nested_correlated"), false, true},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			for _, opts := range drawConfigs() {
				db := testDB(240, 11)
				if c.sorted {
					sortSessionsByBufferTime(db)
				}
				rc := runReads(t, c.query, db, opts)
				if (rc.readers > 0) != c.readers {
					t.Fatalf("%s: %d readers, want some: %v", rc.name, rc.readers, c.readers)
				}
				var none, all bool // a batch no row reaches a reader from / every row does
				for s := range rc.read {
					n := rc.scanned(s)
					none = none || (n > 0 && len(rc.read[s]) == 0)
					all = all || (n > 0 && len(rc.read[s]) == n)
				}
				if c.sorted && c.readers && !(none && all) {
					t.Fatalf("%s: want a batch where no row survives (%v) and one where every row does (%v)", rc.name, none, all)
				}
			}
		})
	}
}

// joinDrawCase is a join of the streamed sessions with static dimensions
// under an aggregate. cross is a conjunct over both sides of a join: it stays
// above the joins, so with it a select above the joins drops rows before the
// aggregate reads any.
type joinDrawCase struct {
	name, query, cross string
	prep               func(*exec.DB) // fixture rewrite, if any
	shared             bool
	none, recoveries   bool // want a batch that reads nothing / a recovery
}

// joinDrawCases have the streamed side left, right (batch 1 builds on the
// streamed rows), matched 1:n, two joins deep, against a frozen shared build
// side, and under a nested query whose sorted arrival forces §5.1 recoveries;
// sorted arrival with a cut also gives batches where nothing reaches the
// aggregate. In repeats_fill_batch a 1:n join hands the sink, which reads no
// vector, exactly a batch's count of rows, each east session twice.
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

// TestSelectDrawsThroughJoins: a certain select over a chain of joins, and
// the selects pushed below them, pass the joined rows by index, and the
// aggregate above draws the vectors of just the rows that reach it, the
// Knuth reference of the session each was joined from.
func TestSelectDrawsThroughJoins(t *testing.T) {
	for _, c := range joinDrawCases(t) {
		c.query = strings.Replace(c.query, "WHERE ", "WHERE "+c.cross+" AND ", 1)
		t.Run(c.name, func(t *testing.T) { checkJoinDrawCase(t, c) })
	}
}

// TestJoinDrawsChainTop: without a filter above the joins, the joins and the
// selects pushed below them pass their rows by index, and the aggregate
// draws the vectors of the joined rows, each the Knuth reference of the
// session it was joined from.
func TestJoinDrawsChainTop(t *testing.T) {
	for _, c := range joinDrawCases(t) {
		t.Run(c.name, func(t *testing.T) { checkJoinDrawCase(t, c) })
	}
}

// checkJoinDrawCase runs c in every drawConfigs cell.
func checkJoinDrawCase(t *testing.T, c joinDrawCase) {
	var none bool
	recoveries := 0
	for _, opts := range drawConfigs() {
		n, rec := checkJoinDraws(t, c.query, c.prep, c.shared, opts)
		none = none || n
		recoveries += rec
	}
	if c.none && !none {
		t.Error("no batch where the aggregate reads nothing")
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

// checkJoinDraws runs query through readCheck and checks that the rows
// reach a reader through a join. It reports whether a step read nothing of a
// non-empty scan batch, and the engine's recoveries.
func checkJoinDraws(t *testing.T, query string, prep func(*exec.DB), shared bool, opts drawConfig) (none bool, recoveries int) {
	t.Helper()
	name := fmt.Sprintf("w%d/novec=%v/cutover=%d", opts.Workers, opts.NoVectorize, opts.cutover)
	db := testDB(240, 11)
	if prep != nil {
		prep(db)
	}
	if shared {
		opts.SharedState = share.NewCache()
	}
	eng, err := opts.newEngine(planQuery(t, query), db)
	if err != nil {
		t.Fatalf("%s: engine: %v", name, err)
	}
	defer eng.Close()
	joins, sharedR := 0, false
	for _, op := range eng.comp.ops {
		if j, ok := op.(*opJoin); ok {
			joins++
			sharedR = sharedR || j.sharedR
		}
	}
	if joins == 0 {
		t.Fatalf("%s: no join", name)
	}
	if shared && !sharedR {
		t.Fatalf("%s: no join probes a frozen shared build side", name)
	}
	c := newReadCheck(t, name, eng, "sessions", opts.Options, sessionIndex(db))
	if _, err := eng.Run(); err != nil {
		t.Fatalf("%s: run: %v", name, err)
	}
	c.finish()
	for s := range c.read {
		none = none || (c.scanned(s) > 0 && len(c.read[s]) == 0)
	}
	return none, eng.TotalRecoveries()
}

// drawConfig is one cell of the draw tests' matrix: the engine's options and
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

// drawConfigs is the execution matrix of the draw tests: worker count, row
// or column path, and the parallel cutover, none of which may show in a
// weight.
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

// TestScansShareBatchWeights: a streamed table is drawn at most once per
// tuple per step, however many scans read it. The shapes scan the table
// twice, outer and inner: a cross join with a scalar subquery (C1), a
// correlated subquery (C2) and an IN subquery with HAVING (Q18). Both scans
// emit by index; the inner aggregate and the outer reader get the same
// floats for a tuple both read. Sorted arrival forces §5.1 replays, whose
// steps over the merged delta draw afresh.
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
					db := testDB(240, 11)
					if sorted {
						sortSessionsByBufferTime(db)
					}
					c := runReads(t, sh.query, db, opts)
					if len(c.scans) < 2 {
						t.Fatalf("%d weighted scans, want the outer and the inner one", len(c.scans))
					}
					if c.readers < 2 || c.shared == 0 {
						t.Fatalf("%d readers shared %d reads, want two sharing some", c.readers, c.shared)
					}
					recoveries += c.eng.TotalRecoveries()
				}
			}
			t.Logf("%d recoveries", recoveries)
			if recoveries == 0 {
				t.Error("sorted arrival forced no recovery")
			}
		})
	}
}

// TestSelectSlicesScanSlab: the inner aggregate of a scalar subquery reads
// the 'east' survivors of its select, and the outer scan's rows, which the
// cross join keeps in a copy store, read every tuple of the batch: the
// survivors' vectors are drawn once, and both readers hold the same floats.
func TestSelectSlicesScanSlab(t *testing.T) {
	q := `SELECT AVG(play_time) AS apt FROM sessions
		WHERE buffer_time > (SELECT AVG(buffer_time) FROM sessions WHERE cdn = 'east')`
	for _, opts := range drawConfigs() {
		for _, sorted := range []bool{false, true} {
			db := testDB(240, 11)
			if sorted {
				sortSessionsByBufferTime(db)
			}
			if c := runReads(t, q, db, opts); c.shared == 0 {
				t.Fatalf("%s/sorted=%v: no select survivor shared its floats with the outer reader", c.name, sorted)
			}
		}
	}
}

// TestOneDrawPerTuplePerStep: a step draws each tuple it reads once. TPC-H
// Q11 and Q17 read the same tuples through two identical filtered chains, and
// a 1:n join repeats each session across the draw's chunks (Workers 4, every
// site parallel); every vector folded or kept is the reference of its tuple.
func TestOneDrawPerTuplePerStep(t *testing.T) {
	w := workload.TPCH(workload.TPCHScale{Fact: 2000, Seed: 1})
	for _, name := range []string{"Q11", "Q17"} {
		t.Run(name, func(t *testing.T) {
			q, ok := w.Query(name)
			if !ok {
				t.Fatalf("no %s", name)
			}
			root, _, err := w.Plan(q)
			if err != nil {
				t.Fatal(err)
			}
			opts := Options{Batches: 5, Trials: 20, Seed: 7, Workers: 4}
			eng, err := NewEngine(root, w.DB(), opts)
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			eng.SetCutover(0)
			c := newReadCheck(t, name, eng, q.Stream, opts, nil)
			if _, err := eng.Run(); err != nil {
				t.Fatal(err)
			}
			c.finish()
			if c.readers < 2 || c.shared == 0 {
				t.Fatalf("%d readers shared %d reads, want the two chains' readers sharing some", c.readers, c.shared)
			}
		})
	}
	t.Run("one_to_many", func(t *testing.T) {
		db := testDB(2400, 11)
		alternateEastWest(db)
		q := `SELECT t.tag, SUM(s.play_time) AS spt FROM sessions s, tags t WHERE s.cdn = t.cdn GROUP BY t.tag`
		c := runReads(t, q, db, drawConfig{Options{Batches: 3, Trials: 20, Seed: 7, Workers: 4}, 0})
		if c.shared == 0 {
			t.Fatal("the join repeated no tuple")
		}
	})
}

// TestJoinStoreWeightModes pins how join stores keep their rows' weights
// (compiled.storeMode). A correlated subquery's store of outer rows faces the
// inner aggregate's certain news, so it keeps each row's tuple; under HDA
// the aggregate re-emits every group every batch, and an IN subquery with
// HAVING is tuple-uncertain, so their stores keep copies. An inner group is
// emitted in the batch of its first row, so its outer rows arrive no
// earlier, and the store's probes match nothing, unless the inner query
// filters: then a group can first pass the filter after some of its outer
// rows were stored, and the aggregate above draws their vectors again when
// it reads the matches. The golden case late_inner_group pins the bits of
// that path.
func TestJoinStoreWeightModes(t *testing.T) {
	for _, c := range []struct {
		name, query string
		mode        Mode
		keys        int
		byIndex     bool // the store keeps tuple indices, not copies
		redraws     bool
	}{
		{"correlated", theoremQuery(t, "nested_correlated"), ModeIOLAP, 0, true, false},
		{"correlated_many_groups", nestedFewRead, ModeIOLAP, 8000, true, false},
		{"filtered_correlated", lateInnerGroup, ModeIOLAP, 1000, true, true},
		{"correlated_hda", theoremQuery(t, "nested_correlated"), ModeHDA, 0, false, false},
		{"in_having", theoremQuery(t, "nested_in_having"), ModeIOLAP, 0, false, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			db := testDB(4000, 42)
			if c.keys > 0 {
				rekeyCDN(db, c.keys)
			}
			eng, err := NewEngine(planQuery(t, c.query), db, Options{Mode: c.mode, Batches: 8, Trials: 10, Seed: 3})
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			var store *delta.HashStore
			for _, op := range eng.comp.ops {
				if j, ok := op.(*opJoin); ok && j.lStore != nil {
					store = j.lStore
				}
			}
			if store == nil {
				t.Fatal("no join keeps its left side")
			}
			redraws := 0
			for !eng.Done() {
				if _, err := eng.Step(); err != nil {
					t.Fatal(err)
				}
				for _, st := range eng.OpStats() {
					redraws += st.Redraws
				}
			}
			byIndex, copies := 0, 0
			store.Each(func(r delta.Row) {
				if r.ByIndex() {
					byIndex++
				} else if r.W != nil {
					copies++
				}
			})
			if byIndex+copies == 0 || (byIndex > 0) != c.byIndex || (copies > 0) == c.byIndex {
				t.Errorf("left store holds %d rows by index and %d weight copies, want by index: %v", byIndex, copies, c.byIndex)
			}
			if (redraws > 0) != c.redraws {
				t.Errorf("%d vectors redrawn, want some: %v", redraws, c.redraws)
			}
		})
	}
}
