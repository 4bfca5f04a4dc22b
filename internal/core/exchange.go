// Distributed-site plumbing: the Exchanger seam the internal/dist transport
// plugs into, the one function that decides whether a site's spans travel
// (site), and the span codecs of the sites that can.
//
// The execution model is SPMD replica lockstep: every participant
// (coordinator and each remote worker) holds a full deterministic engine
// replica and steps the same mini-batches in the same order. Aggregation and
// all other state transitions are replicated — identical inputs, identical
// fold order, identical floats — while the embarrassingly row-parallel sites
// (SELECT classification, join probe, sink materialisation) are partitioned:
// each participant computes one contiguous span of the site, the spans are
// collected and merged in span order, and the merged byte payloads are
// applied identically on every replica. Because span boundaries are a pure
// function of (n, participant count) — the same i·n/p arithmetic as
// cluster.Pool.Span — and the codecs round-trip values bit-exactly,
// distributed output is bit-identical to the local Workers=1 run (the
// DESIGN.md §7 invariant extended across machines; see DESIGN.md §9).
package core

import (
	"fmt"

	"iolap/internal/bootstrap"
	"iolap/internal/cluster"
	"iolap/internal/delta"
	"iolap/internal/expr"
	"iolap/internal/rel"
	"iolap/internal/storage"
	"iolap/internal/wire"
)

// Exchanger connects an engine to a distributed transport. Implementations
// live in internal/dist (the interface is defined here so core does not
// import its own transport).
//
// Exchange runs one distributed site over n logical rows: compute(lo, hi)
// encodes the caller's result for one contiguous span, and merge(lo, hi,
// payload) applies one span's encoded result. The implementation must call
// merge exactly once per span, sequentially, in ascending span order, with
// the spans exactly covering [0, n) — that contract is what lets operator
// sites append merged rows and know the result equals the sequential loop.
// Every replica must apply the same payload bytes for the same span.
type Exchanger interface {
	Exchange(class cluster.OpClass, n int, compute func(lo, hi int) ([]byte, error), merge func(lo, hi int, payload []byte) error) error
	// MinRows is the smallest site worth shipping: below it the per-span
	// round-trip dominates and every replica computes the site locally
	// (deterministically — the gate depends only on n, never on clocks).
	MinRows() int
	// WireStats returns cumulative measured wire traffic: bytes received
	// from peers (shuffle) and bytes sent to peers (broadcast).
	WireStats() (shuffle, broadcast int64)
}

// distPanic aborts a batch from inside an operator when the transport fails.
// Operator signatures stay error-free (sites are deep inside pure compute
// paths); Engine.Step recovers the panic and surfaces it as the batch error.
type distPanic struct{ err error }

// spanCodec is how a site's spans cross the transport: encode frames the
// span [lo, hi) the replica just computed, merge applies one span's payload
// (every span's, the replica's own included, in ascending order).
type spanCodec struct {
	encode func(lo, hi int) ([]byte, error)
	merge  func(lo, hi int, payload []byte) error
}

// site runs one row-parallel site of n rows: span(p, lo, hi) computes rows
// [lo, hi) on p, the pool the gate granted the range (nil: inline). It is the
// one fork between local and distributed execution. Without a transport, or
// below its MinRows, the site runs on the batch's runner — gated, clocked —
// as span(p, 0, n), and site reports false. Otherwise the spans travel: the
// replica computes each span the exchanger hands it, gated by the span's own
// size and not clocked, every replica applies all spans through codec.merge,
// and site reports true. The fork depends only on n, never on clocks, so
// replicas agree on the exchange call sequence; transport failure aborts the
// batch.
func (bc *batchContext) site(class cluster.OpClass, n int, codec spanCodec, span func(p *cluster.Pool, lo, hi int)) bool {
	if bc.exch == nil || n < bc.exch.MinRows() {
		bc.run.Run(class, n, func(p *cluster.Pool) { span(p, 0, n) })
		return false
	}
	err := bc.exch.Exchange(class, n,
		func(lo, hi int) ([]byte, error) {
			span(bc.run.Gate(class, hi-lo), lo, hi)
			return codec.encode(lo, hi)
		}, codec.merge)
	if err != nil {
		panic(distPanic{fmt.Errorf("core: distributed %v site (%d rows): %w", class, n, err)})
	}
	return true
}

// ---------------------------------------------------------------------------
// Span codecs, written in internal/wire's primitives (DESIGN.md §15). All
// decoders validate the full payload before mutating the caller's buffers, so
// a corrupt span from a failing worker can be recomputed without unwinding a
// partial merge; every count read off the wire goes through Reader.Count, so
// a lying count is an error, never an allocation.

// encodeVerdictSpan packs selVerdicts one byte per row: the tri-state in the
// low two bits, the current-value pass bit above.
func encodeVerdictSpan(vs []selVerdict, lo, hi int) []byte {
	out := make([]byte, hi-lo)
	for i := lo; i < hi; i++ {
		b := byte(vs[i].tri) & 3
		if vs[i].pass {
			b |= 4
		}
		out[i-lo] = b
	}
	return out
}

func decodeVerdictSpan(vs []selVerdict, lo, hi int, p []byte) error {
	if len(p) != hi-lo {
		return fmt.Errorf("core: verdict span [%d,%d): got %d bytes", lo, hi, len(p))
	}
	for i, b := range p {
		if b > 7 {
			return fmt.Errorf("core: verdict span: bad verdict byte %#x", b)
		}
		vs[lo+i] = selVerdict{tri: expr.Tri(b & 3), pass: b&4 != 0}
	}
	return nil
}

// encodeBoolSpan packs one byte per row (0/1).
func encodeBoolSpan(pass []bool, lo, hi int) []byte {
	out := make([]byte, hi-lo)
	for i := lo; i < hi; i++ {
		if pass[i] {
			out[i-lo] = 1
		}
	}
	return out
}

func decodeBoolSpan(pass []bool, lo, hi int, p []byte) error {
	if len(p) != hi-lo {
		return fmt.Errorf("core: bool span [%d,%d): got %d bytes", lo, hi, len(p))
	}
	for i, b := range p {
		if b > 1 {
			return fmt.Errorf("core: bool span: bad byte %#x", b)
		}
		pass[lo+i] = b == 1
	}
	return nil
}

// encodeRowSpan frames a probe span's joined rows with the storage spill-row
// codec (bit-exact floats, lineage refs included): a row count followed by
// the length-prefixed rows.
func encodeRowSpan(rows []delta.Row) ([]byte, error) {
	out := wire.AppendUvarint(nil, uint64(len(rows)))
	var err error
	for _, row := range rows {
		if out, err = storage.AppendSpillRow(out, row.Vals, row.Mult, row.W); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func decodeRowSpan(p []byte) ([]delta.Row, error) {
	r := wire.NewReader(p)
	n := r.Count("row count")
	rows := make([]delta.Row, 0, n)
	for i := 0; i < n && r.Err() == nil; i++ {
		vals, mult, w := storage.ReadSpillRow(r)
		rows = append(rows, delta.Row{Vals: vals, Mult: mult, W: w})
	}
	if err := r.Done("row span"); err != nil {
		return nil, fmt.Errorf("core: row span: %w", err)
	}
	return rows, nil
}

// AppendEstimates appends each estimate as five F64 words — Value, Stdev,
// CILo, CIHi, RelStd — the one encoding of a bootstrap estimate (sink spans,
// the serve protocol's Estimate frame, the dist result digest).
func AppendEstimates(dst []byte, es []bootstrap.Estimate) []byte {
	for _, e := range es {
		dst = wire.AppendF64(dst, e.Value)
		dst = wire.AppendF64(dst, e.Stdev)
		dst = wire.AppendF64(dst, e.CILo)
		dst = wire.AppendF64(dst, e.CIHi)
		dst = wire.AppendF64(dst, e.RelStd)
	}
	return dst
}

// ReadEstimates decodes n estimates written by AppendEstimates, rejecting an
// n the remaining payload cannot hold before allocating.
func ReadEstimates(r *wire.Reader, n int) []bootstrap.Estimate {
	if n < 0 || n > r.Len()/40 {
		r.Fail(fmt.Errorf("core: %d estimates exceed the %d payload bytes left", n, r.Len()))
		return nil
	}
	es := make([]bootstrap.Estimate, n)
	for i := range es {
		es[i] = bootstrap.Estimate{
			Value:  r.F64("estimate value"),
			Stdev:  r.F64("estimate stdev"),
			CILo:   r.F64("estimate cilo"),
			CIHi:   r.F64("estimate cihi"),
			RelStd: r.F64("estimate relstd"),
		}
	}
	return es
}

// encodeSinkSpan frames materialised result tuples with their bootstrap
// estimates: per row, the tuple as a spill row (final multiplicity baked in)
// followed by width estimates (AppendEstimates).
func encodeSinkSpan(res *rel.Relation, ests [][]bootstrap.Estimate, lo, hi, width int) ([]byte, error) {
	var out []byte
	var err error
	for i := lo; i < hi; i++ {
		out, err = storage.AppendSpillRow(out, res.Tuples[i].Vals, res.Tuples[i].Mult, nil)
		if err != nil {
			return nil, err
		}
		out = AppendEstimates(out, ests[i])
	}
	return out, nil
}

func decodeSinkSpan(res *rel.Relation, ests [][]bootstrap.Estimate, lo, hi, width int, p []byte) error {
	r := wire.NewReader(p)
	tuples := make([]rel.Tuple, hi-lo)
	rowEsts := make([][]bootstrap.Estimate, hi-lo)
	for i := 0; i < hi-lo && r.Err() == nil; i++ {
		vals, mult, _ := storage.ReadSpillRow(r)
		tuples[i] = rel.Tuple{Vals: vals, Mult: mult}
		rowEsts[i] = ReadEstimates(r, width)
	}
	if err := r.Done("sink span"); err != nil {
		return fmt.Errorf("core: sink span: %w", err)
	}
	copy(res.Tuples[lo:hi], tuples)
	copy(ests[lo:hi], rowEsts)
	return nil
}
