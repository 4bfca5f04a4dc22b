package core

import (
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"iolap/internal/delta"
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
// scan draws the weights of the rows it keeps, and the scan draws none; every
// other weighted scan draws for all its rows. Either way every row leaving the
// drawing operator carries the Knuth reference vector of its tuple's global
// index, on the vectorized and row branches, at any worker count and cutover,
// and under a transport (whose select sites ship verdicts, so each replica
// draws its own survivors).
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
		scanDraw   bool // some scan draws for itself
	}{
		{"sorted_cut", fmt.Sprintf(`SELECT cdn, SUM(play_time) AS s FROM sessions WHERE buffer_time > %v GROUP BY cdn`, cut),
			true, true, false},
		{"flat_filter_agg", theoremQuery(t, "flat_filter_agg"), false, true, false},
		{"union_all", theoremQuery(t, "union_all"), false, true, false},
		{"flat_group_by", theoremQuery(t, "flat_group_by"), false, false, true},
		{"join_dim_group", theoremQuery(t, "join_dim_group"), false, false, true},
		{"nested_correlated", theoremQuery(t, "nested_correlated"), false, false, true},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			for _, workers := range []int{1, 4} {
				for _, novec := range []bool{false, true} {
					for _, cutover := range []int{0, 1} {
						for _, dist := range []bool{false, true} {
							opts := Options{Mode: ModeIOLAP, Batches: 6, Trials: 25, Seed: 3,
								Workers: workers, NoVectorize: novec, ParThreshold: cutover}
							if dist {
								opts.Exchange = &recordingExchanger{seq: fnv.New64a()}
							}
							name := fmt.Sprintf("w%d/novec=%v/cutover=%d/dist=%v", workers, novec, cutover, dist)
							checkDraws(t, name, c.query, c.sorted, c.selectDraw, c.scanDraw, opts)
						}
					}
				}
			}
		})
	}
}

func checkDraws(t *testing.T, name, query string, sorted, wantSelectDraw, wantScanDraw bool, opts Options) {
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
	eng, err := NewEngine(planQuery(t, query), db, opts)
	if err != nil {
		t.Fatalf("%s: engine: %v", name, err)
	}
	// drawTaps[i] sits above the select whose scan lateTaps[i] taps.
	var scanTaps, drawTaps, lateTaps []*tapOp
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
	if (len(drawTaps) > 0) != wantSelectDraw || (len(scanTaps) > 0) != wantScanDraw || len(lateTaps) != len(drawTaps) {
		t.Fatalf("%s: %d drawing selects over %d late scans, %d drawing scans; want selects %v, scans %v",
			name, len(drawTaps), len(lateTaps), len(scanTaps), wantSelectDraw, wantScanDraw)
	}
	for _, tp := range lateTaps {
		for _, rows := range tp.steps {
			for _, r := range rows {
				if r.W != nil {
					t.Fatalf("%s: a scan below a drawing select emitted weights", name)
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
