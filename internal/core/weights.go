package core

import (
	"math"

	"iolap/internal/bootstrap"
	"iolap/internal/cluster"
	"iolap/internal/delta"
)

// weigher draws the bootstrap weight vectors of the plan's streamed table
// where they are first read (DESIGN.md §10, "Drawing on read"). A weighted
// scan emits every row by index (delta.Row.Tuple set, W nil) until an
// operator reads or keeps its vector: the aggregate, an uncertain select for
// the rows its non-deterministic set keeps, and a join for a side whose store
// keeps copies. Each fills its rows from one arena, recycled every step, into
// which each tuple the step reads is drawn once, in first-read order. A
// vector is a pure function of (salted seed, tuple index), so who draws it
// never shows in its bits. The plan's operators step one after another, so
// the weigher takes no lock.
type weigher struct {
	src *bootstrap.PoissonSource
	// base is the tuple index of the step's first batch row; pos holds, per
	// batch row, 1 + the slot of its vector, 0 while it is undrawn.
	base uint64
	pos  []int32
	// old holds the slots of tuples of earlier batches, which reach a reader
	// from a join store that keeps its rows by index.
	old map[uint64]int32
	// tuples and vecs are the tuple and the vector of every slot of the
	// step. The vectors are packed into arena, recycled every step, in slot
	// order; free is the array being filled. A step that outgrows the arena
	// draws the rest into an array of its own, so no vector moves within its
	// step, and the next step gets one arena of the whole size.
	tuples []uint64
	vecs   [][]float64
	arena  []float64
	free   []float64
	at     []int32 // fill's per-row slots

	// poison, a test seam (Engine.poisonSlabs), NaN-fills every array of a
	// step when the next one begins and draws into fresh ones, so a vector
	// kept past its step reads NaN; spent lists those arrays.
	poison bool
	spent  [][]float64
	// trace, a test seam (Engine.traceDraws) when non-nil, lists per step
	// the tuples drawn, in slot order.
	trace *[][]uint64
}

// newWeigher returns the weigher of a plan over table, or nil when the
// bootstrap is off: no row then carries a tuple, and fill is a no-op. Its
// Poisson stream is salted by the table name, so distinct tables get
// independent streams, while the several scans of one table (self joins via
// subqueries) give identical tuples identical weights, as the bootstrap
// requires.
func newWeigher(table string, opts Options) *weigher {
	if opts.Trials <= 0 {
		return nil
	}
	salt := opts.Seed
	for _, ch := range table {
		salt = salt*131 + uint64(ch)
	}
	return &weigher{src: bootstrap.NewPoissonSource(salt, opts.Trials)}
}

// begin starts a step whose batch is the n tuples from base on, and returns
// the weigher for the step's context. A step over a merged delta (a §5.1
// replay, or a shared entry's catch-up) gets a weigher of its own, which
// dies with the step, so no array sized for several batches outlives it.
func (w *weigher) begin(base uint64, n int, replay bool) *weigher {
	if w == nil {
		return nil
	}
	if replay {
		w = &weigher{src: w.src, trace: w.trace}
	} else if drawn := len(w.tuples) * w.src.Trials(); drawn > cap(w.arena) {
		w.arena = make([]float64, drawn)
	}
	if w.poison {
		for _, a := range w.spent {
			a = a[:cap(a)]
			for i := range a {
				a[i] = math.NaN()
			}
		}
		w.spent, w.arena = w.spent[:0], nil
	}
	w.base = base
	w.pos = resized(w.pos, n)
	clear(w.pos)
	clear(w.old)
	clear(w.vecs)
	w.tuples, w.vecs, w.free = w.tuples[:0], w.vecs[:0], w.arena[:0]
	if w.trace != nil {
		*w.trace = append(*w.trace, nil)
	}
	return w
}

// fill gives every row of rows that holds its vector by index its vector,
// and returns how many vectors it drew for tuples of earlier batches
// (OpStat.Redraws). Three passes: a sequential one gives each tuple its slot,
// drawing none twice (a 1:n join repeats a tuple, and two readers may read
// one); a chunk-parallel one draws the new slots; the last slices the rows'
// vectors. Only the draws feed the scan class estimate.
func (w *weigher) fill(run cluster.Runner, rows []delta.Row) (redraws int) {
	if w == nil {
		return 0
	}
	first := len(w.tuples)
	at := resized(w.at, len(rows))
	w.at = at
	for i := range rows {
		at[i] = -1
		if !rows[i].ByIndex() {
			continue
		}
		t := rows[i].Tuple - 1
		if p := t - w.base; p < uint64(len(w.pos)) {
			if w.pos[p] == 0 {
				w.tuples = append(w.tuples, t)
				w.pos[p] = int32(len(w.tuples))
			}
			at[i] = w.pos[p] - 1
			continue
		}
		s, ok := w.old[t]
		if !ok {
			if w.old == nil {
				w.old = make(map[uint64]int32)
			}
			s = int32(len(w.tuples))
			w.old[t] = s
			w.tuples = append(w.tuples, t)
			redraws++
		}
		at[i] = s
	}
	if drawn := w.tuples[first:]; len(drawn) > 0 {
		B := w.src.Trials()
		n := len(drawn) * B
		if cap(w.free)-len(w.free) < n {
			w.free = make([]float64, 0, n)
			if first == 0 {
				w.arena = w.free // nothing is drawn yet: the arena just grows
			}
			if w.poison {
				w.spent = append(w.spent, w.free)
			}
		}
		slab := w.free[len(w.free) : len(w.free)+n]
		w.free = w.free[:len(w.free)+n]
		for k := range drawn {
			w.vecs = append(w.vecs, slab[k*B:(k+1)*B:(k+1)*B])
		}
		vecs := w.vecs[first:]
		run.Chunks(cluster.CostScan, len(drawn), func(lo, hi int) {
			for k := lo; k < hi; k++ {
				w.src.WeightsInto(drawn[k], vecs[k])
			}
		})
		if w.trace != nil {
			t := *w.trace
			t[len(t)-1] = append(t[len(t)-1], drawn...)
		}
	}
	for i, s := range at {
		if s >= 0 {
			rows[i].W = w.vecs[s]
		}
	}
	return redraws
}
