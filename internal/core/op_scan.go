package core

import (
	"fmt"

	"iolap/internal/bootstrap"
	"iolap/internal/cluster"
	"iolap/internal/delta"
	"iolap/internal/plan"
	"iolap/internal/rel"
)

type opScan struct {
	emitCounts
	node    *plan.Scan
	poisson *bootstrap.PoissonSource // nil when trials == 0 or scan is static
	next    uint64                   // per-table tuple index for weight derivation
	done    bool                     // static side fully emitted
	// wantCB marks that some downstream operator consumes the columnar
	// companion batch (markColumnar); scans whose plan has no vectorized
	// consumer skip the columnar build entirely. cbNeed is the column set
	// those consumers read — the subset view materialises only these banks.
	wantCB bool
	cbNeed []bool
}

type scanSnap struct {
	next uint64
	done bool
}

func newOpScan(t *plan.Scan, opts Options) *opScan {
	op := &opScan{node: t}
	if t.Streamed && opts.Trials > 0 {
		// Salt by table name so distinct tables get independent Poisson
		// streams, while the multiple scans of one table (self joins via
		// subqueries) assign identical weights to identical tuples —
		// required for bootstrap correctness.
		salt := opts.Seed
		for _, ch := range t.Table {
			salt = salt*131 + uint64(ch)
		}
		op.poisson = bootstrap.NewPoissonSource(salt, opts.Trials)
	}
	return op
}

func (o *opScan) step(bc *batchContext) (output, error) {
	if o.node.Streamed {
		d, ok := bc.delta[o.node.Table]
		if !ok {
			return output{}, fmt.Errorf("core: no delta for streamed table %q", o.node.Table)
		}
		rows := make([]delta.Row, d.Len())
		base := o.next
		// One weight slab per batch: every tuple's vector is a capped
		// sub-slice filled in place, so weight derivation performs no
		// per-tuple allocation on either the sequential or parallel path
		// (disjoint sub-slices make the parallel fill race-free). Rows keep
		// their W slices past the batch, so the slab is never recycled.
		var slab []float64
		trials := 0
		if o.poisson != nil {
			trials = o.poisson.Trials()
			slab = make([]float64, d.Len()*trials)
		}
		fill := func(i int) {
			tp := d.Tuples[i]
			var w []float64
			if o.poisson != nil {
				w = o.poisson.WeightsInto(base+uint64(i), slab[i*trials:(i+1)*trials:(i+1)*trials])
			}
			rows[i] = delta.Row{Vals: tp.Vals, Mult: tp.Mult, W: w}
		}
		// Weight derivation is per-tuple-index deterministic, so the
		// partition-parallel path is bit-identical to the sequential one.
		// Only weighted scans feed the scan EWMA: the unweighted fill is a
		// different (much cheaper) operation and would drag the estimate.
		if o.poisson != nil {
			bc.run.Chunks(cluster.CostScan, d.Len(), func(lo, hi int) {
				for i := lo; i < hi; i++ {
					fill(i)
				}
			})
		} else {
			for i := range rows {
				fill(i)
			}
		}
		o.next += uint64(d.Len())
		out := output{news: rows}
		if bc.vec && o.wantCB {
			// Columnar companion view over just the banks the plan's
			// consumers read, built from the delta's tuples every batch
			// (nothing caches a view: a narrow one is cheaper to rebuild
			// than to share). Weights are not part of the view: every
			// consumer reads them from the rows.
			out.cb = &colBatch{cols: rel.ToColumnsSubset(d.Schema, d.Tuples, o.cbNeed)}
		}
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
