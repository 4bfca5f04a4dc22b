// Package dist is the distributed-execution transport for the iOLAP engine:
// a coordinator process drives remote worker processes over a length-prefixed
// frame protocol (stdlib net only), plugging into the engine through the
// core.Exchanger seam.
//
// The execution model is SPMD replica lockstep (see internal/core/exchange.go
// and DESIGN.md §9): every participant holds a full deterministic engine
// replica built from a Setup message carrying the serialized tables, the SQL
// text and the engine options. Replicas step mini-batches in lockstep; at
// each row-parallel operator site the participants compute disjoint
// contiguous spans, the coordinator collects them, and all replicas apply the
// identical merged byte payloads — so distributed output is bit-identical to
// the local Workers=1 run at any worker count, including after mid-batch
// worker failure (the coordinator re-dispatches a dead worker's spans to
// survivors, or computes them itself).
//
// Frames and payload primitives are internal/wire's (DESIGN.md §15); this
// package defines only the message types and their layouts. The coordinator
// dials; workers listen and serve one coordinator per connection.
package dist

import "net"

// Frame types. Direction is fixed per type: the coordinator never sends a
// worker→coordinator frame and vice versa, which is what lets the wire
// accounting classify traffic by direction alone (coordinator→worker =
// broadcast fan-out, worker→coordinator = shuffle collection).
const (
	msgSetup     byte = iota + 1 // c→w: version, rank, minRows, options, sql, tables
	msgSetupOK                   // w→c: replica built and ready
	msgStep                      // c→w: batch number + frozen live ranks
	msgSpan                      // w→c: seq, lo, hi, span payload
	msgCompute                   // c→w: seq, lo, hi — compute an extra (re-dispatched) span
	msgMerged                    // c→w: seq + every span of the site, in span order
	msgBatchDone                 // w→c: batch number + result digest
	msgPing                      // c→w: liveness probe
	msgPong                      // w→c: liveness reply
	msgShutdown                  // c→w: orderly teardown
	msgError                     // w→c: fatal worker-side error text
)

// protoVersion guards against mixed binaries: replicas must run identical
// code for bit-identical floats, so a version mismatch at Setup is fatal.
// Version 2 added elastic membership (catch-up fields in Setup, per-batch
// span weights in Step, compute nanos in Span) and partitioned shipping.
// Version 3 switched Setup table shipping to the columnar block codec (with
// a row-codec fallback flag per table), added the WireCompression option to
// the Setup payload, and framed span/merged payloads as compressible blobs.
// Version 4 dropped partitioned shipping and the per-table format byte from
// Setup: every table ships whole, as columnar blocks.
const protoVersion = 4

// assignSpans splits [0, n) into p contiguous spans with boundaries i·n/p —
// the same arithmetic as cluster.Pool.Span, and a pure function of
// (n, p), so every replica derives the identical assignment without
// communication. Participant 0 is the coordinator; participant i+1 is the
// worker at index i of the batch's frozen live list.
func assignSpans(n, p int) [][2]int {
	spans := make([][2]int, p)
	for i := 0; i < p; i++ {
		spans[i] = [2]int{i * n / p, (i + 1) * n / p}
	}
	return spans
}

// weightedSpans splits [0, n) into len(ws) contiguous spans whose sizes are
// proportional to the weights, with boundaries ⌊cum_i·n/tot⌋ — for equal
// weights the cumulative sums are equal rationals, so this reduces exactly
// to assignSpans. Like assignSpans it is a pure function of its inputs: the
// coordinator freezes the weights per batch (announced in msgStep) and every
// replica derives the identical assignment. Non-positive totals fall back to
// equal spans.
func weightedSpans(n int, ws []int) [][2]int {
	tot := 0
	for _, w := range ws {
		if w > 0 {
			tot += w
		}
	}
	if tot <= 0 {
		return assignSpans(n, len(ws))
	}
	spans := make([][2]int, len(ws))
	cum, prev := 0, 0
	for i, w := range ws {
		if w > 0 {
			cum += w
		}
		hi := int(int64(cum) * int64(n) / int64(tot))
		spans[i] = [2]int{prev, hi}
		prev = hi
	}
	return spans
}

// isTimeout reports whether err is a network read/write deadline expiry.
func isTimeout(err error) bool {
	ne, ok := err.(net.Error)
	return ok && ne.Timeout()
}
