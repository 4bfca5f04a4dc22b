package core

import (
	"fmt"

	"iolap/internal/delta"
	"iolap/internal/plan"
)

type opScan struct {
	emitCounts
	node *plan.Scan
	// weighted marks a streamed scan with the bootstrap on: it emits every
	// row by index (delta.Row.Tuple), and the operator that first reads the
	// row's vector draws it (weigher).
	weighted bool
	next     uint64 // per-table tuple index of the next streamed row
	done     bool   // static side fully emitted
}

type scanSnap struct {
	next uint64
	done bool
}

func newOpScan(t *plan.Scan, opts Options) *opScan {
	return &opScan{node: t, weighted: t.Streamed && opts.Trials > 0}
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
			if o.weighted {
				rows[i].Tuple = o.next + uint64(i) + 1
			}
		}
		o.next += uint64(d.Len())
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
