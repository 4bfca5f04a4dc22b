package core

import (
	"fmt"
	"math"

	"iolap/internal/bootstrap"
	"iolap/internal/cluster"
	"iolap/internal/delta"
	"iolap/internal/plan"
)

type opScan struct {
	emitCounts
	node    *plan.Scan
	poisson *bootstrap.PoissonSource // nil when trials == 0 or scan is static
	next    uint64                   // per-table tuple index for weight derivation
	base    uint64                   // tuple index of the current batch's first row
	done    bool                     // static side fully emitted
	// lateDraw marks a weighted scan whose weights the top of its filter
	// chain, a select or a join above it, draws for just the rows that
	// survive the chain (compiled.drawLate): the scan then emits rows without
	// W, and no vector is drawn for a row a filter would discard.
	lateDraw bool
	// slab is what drawWeights fills, reused every batch: no vector drawn
	// into it outlives its step (DESIGN.md §10, "Who owns a vector").
	// poison, a test seam, NaN-fills it instead of reusing it, so a vector
	// kept past its step reads NaN.
	slab   []float64
	poison bool
}

type scanSnap struct {
	next uint64
	done bool
}

func newOpScan(t *plan.Scan, opts Options) *opScan {
	op := &opScan{node: t}
	if t.Streamed && opts.Trials > 0 {
		op.poisson = tableSource(t.Table, opts)
	}
	return op
}

// tableSource is the Poisson stream of a streamed table. It is salted by the
// table name, so distinct tables get independent streams, while the several
// scans of one table (self joins via subqueries) assign identical weights to
// identical tuples — required for bootstrap correctness — and a holder that
// dropped a vector redraws the same one.
func tableSource(table string, opts Options) *bootstrap.PoissonSource {
	salt := opts.Seed
	for _, ch := range table {
		salt = salt*131 + uint64(ch)
	}
	return bootstrap.NewPoissonSource(salt, opts.Trials)
}

func (o *opScan) step(bc *batchContext) (output, error) {
	if o.node.Streamed {
		d, ok := bc.delta[o.node.Table]
		if !ok {
			return output{}, fmt.Errorf("core: no delta for streamed table %q", o.node.Table)
		}
		rows := make([]delta.Row, d.Len())
		for i, tp := range d.Tuples {
			rows[i] = delta.Row{Vals: tp.Vals, Mult: tp.Mult}
		}
		o.base = o.next
		o.next += uint64(d.Len())
		if o.poisson != nil && !o.lateDraw {
			o.weigh(bc, rows, nil)
		}
		out := output{news: rows}
		o.record(out)
		return out, nil
	}
	if o.done {
		o.record(output{})
		return output{}, nil
	}
	o.done = true
	src, ok := bc.dims.Get(o.node.Table)
	if !ok {
		return output{}, fmt.Errorf("core: unknown table %q", o.node.Table)
	}
	rows := make([]delta.Row, 0, src.Len())
	for _, tp := range src.Tuples {
		rows = append(rows, delta.Row{Vals: tp.Vals, Mult: tp.Mult})
	}
	out := output{news: rows}
	o.record(out)
	return out, nil
}

func (o *opScan) snapshot() interface{}    { return scanSnap{next: o.next, done: o.done} }
func (o *opScan) restore(snap interface{}) { s := snap.(scanSnap); o.next, o.done = s.next, s.done }
func (o *opScan) stateBytes() int          { return 0 }
func (o *opScan) kind() string             { return "scan" }

// weigh gives rows their weight vectors, where rows[k] is built from row
// idx[k] of this scan's batch (row k when idx is nil): the scan weighs its
// whole batch, a late drawer just the rows it emits. Through a 1:n join idx
// may repeat a row. A table's batch is drawn in full at most once: if an
// earlier scan of the table drew this batch's slab, the vectors are capped
// sub-slices of it. Otherwise they are drawn here, and a draw of exactly rows
// 0..n-1 in order becomes the table's slab for the rest of the batch. Every
// scan of one table salts the same stream and steps over the same deltas, so
// a slab with the same (base, n) holds exactly the vectors a fresh draw would.
func (o *opScan) weigh(bc *batchContext, rows []delta.Row, idx []int32) {
	n := int(o.next - o.base)
	if s, ok := bc.slabs[o.node.Table]; ok && s.base == o.base && s.n == n {
		t := o.poisson.Trials()
		for k := range rows {
			i := k
			if idx != nil {
				i = int(idx[k])
			}
			rows[k].W = s.w[i*t : (i+1)*t : (i+1)*t]
			rows[k].Tuple = o.base + uint64(i) + 1
		}
		return
	}
	w := o.drawWeights(bc, rows, idx)
	if len(rows) == n && isIdentity(idx) {
		bc.slabs[o.node.Table] = weightSlab{base: o.base, n: n, w: w}
	}
}

// isIdentity reports whether idx is nil or 0, 1, …, len(idx)-1.
func isIdentity(idx []int32) bool {
	for k, i := range idx {
		if int(i) != k {
			return false
		}
	}
	return true
}

// drawWeights gives rows[k] the bootstrap weight vector of tuple base+idx[k]
// (base+k when idx is nil), names that tuple in rows[k].Tuple and returns the
// slab it drew them into. It is the one place a row's weights are drawn,
// for opScan.weigh. A vector is a pure function of (salted seed, tuple
// index), so who draws it, and when, never shows in the weights.
//
// Every vector is a capped sub-slice of the scan's one slab, so drawing costs
// no per-row allocation and keeps the vectors contiguous for the fold
// kernels' sequential reads. The slab is reused every batch (slabFor): a
// holder that keeps a row past its step owns its vector, as a copy or by
// index (delta.Row). Disjoint sub-slices make the chunked fill race-free and
// bit-identical to the sequential one. Only drawn rows feed the scan class
// estimate: the weight-free header fill and slab slicing are different, much
// cheaper operations and would drag it.
func (o *opScan) drawWeights(bc *batchContext, rows []delta.Row, idx []int32) []float64 {
	src, base := o.poisson, o.base
	trials := src.Trials()
	slab := o.slabFor(bc, len(rows)*trials)
	bc.run.Chunks(cluster.CostScan, len(rows), func(lo, hi int) {
		for k := lo; k < hi; k++ {
			i := base + uint64(k)
			if idx != nil {
				i = base + uint64(idx[k])
			}
			rows[k].W = src.WeightsInto(i, slab[k*trials:(k+1)*trials:(k+1)*trials])
			rows[k].Tuple = i + 1
		}
	})
	return slab
}

// slabFor returns n floats of the scan's slab. A draw larger than the slab
// allocates, and keeps the allocation as the slab unless the step is a
// replay (batchContext.replay), whose merged delta would pin a slab several
// batches long.
func (o *opScan) slabFor(bc *batchContext, n int) []float64 {
	if o.poison {
		for i := range o.slab {
			o.slab[i] = math.NaN()
		}
		o.slab = make([]float64, n)
		return o.slab
	}
	if cap(o.slab) >= n {
		return o.slab[:n]
	}
	w := make([]float64, n)
	if !bc.replay {
		o.slab = w
	}
	return w
}
