package serve

import (
	"fmt"
	"math"

	"iolap/internal/bootstrap"
	"iolap/internal/core"
	"iolap/internal/rel"
	"iolap/internal/storage"
	"iolap/internal/wire"
)

// The session protocol: Open/Estimate/Cancel/Close frames in internal/wire's
// frame format and payload primitives (DESIGN.md §15). One connection
// multiplexes many sessions — every frame after the Open handshake carries a
// session id — and floats travel as raw Float64bits, so a remote client's
// estimate trajectory is bit-identical to a local session's.
//
// Client→server: Open, Cancel, Close (Close ≡ Cancel; it exists so clients
// can distinguish teardown from user cancellation in traces).
// Server→client: OpenOK or OpenErr (answering the connection's oldest
// unanswered Open — clients serialize Opens), then per session any number of
// Estimate frames followed by exactly one Done.

// Session frame types. They start at 0x20 so a stray cross-wired peer fails
// loudly on an unknown type instead of half-parsing.
const (
	frOpen     byte = 0x20 + iota // c→s: version, tenant, options, query
	frCancel                      // c→s: sid — tear the session down
	frClose                       // c→s: sid — client-side close (≡ Cancel)
	frOpenOK                      // s→c: sid, batches, queued
	frOpenErr                     // s→c: code, message
	frEstimate                    // s→c: sid + one Update
	frDone                        // s→c: sid, code, message
)

// sessionProtoVersion guards against mixed binaries.
const sessionProtoVersion = 1

// OpenErr / Done status codes.
const (
	codeOK        byte = 0 // Done: pass completed, exact answer delivered
	codeCancelled byte = 1 // Done: session cancelled
	codeError     byte = 2 // Done/OpenErr: failure, message attached
	codeBudget    byte = 3 // OpenErr: admission rejected (ErrBudgetExhausted)
)

// appendOpen encodes an Open frame: the query and the session's options.
func appendOpen(dst []byte, query string, o SessionOptions) []byte {
	dst = append(dst, sessionProtoVersion)
	dst = wire.AppendStr(dst, o.Tenant)
	dst = wire.AppendStr(dst, o.Stream)
	dst = wire.AppendStr(dst, query)
	dst = append(dst, byte(o.Mode))
	dst = wire.AppendVarint(dst, int64(o.Trials))
	dst = wire.AppendU64(dst, math.Float64bits(o.Slack))
	dst = wire.AppendU64(dst, o.Seed)
	dst = wire.AppendUvarint(dst, uint64(o.Workers))
	dst = wire.AppendVarint(dst, o.StateBudgetBytes)
	return dst
}

func decodeOpen(p []byte) (string, SessionOptions, error) {
	r := wire.NewReader(p)
	if v := r.Byte("open version"); r.Err() == nil && v != sessionProtoVersion {
		return "", SessionOptions{}, fmt.Errorf("serve: session protocol version %d, want %d", v, sessionProtoVersion)
	}
	var o SessionOptions
	o.Tenant = r.Str("open tenant")
	o.Stream = r.Str("open stream")
	query := r.Str("open query")
	o.Mode = core.Mode(r.Byte("open mode"))
	o.Trials = int(r.Varint("open trials"))
	o.Slack = math.Float64frombits(r.U64("open slack"))
	o.Seed = r.U64("open seed")
	o.Workers = int(r.Uvarint("open workers"))
	o.StateBudgetBytes = r.Varint("open state budget")
	return query, o, r.Done("open")
}

func appendOpenOK(dst []byte, sid uint64, batches int, queued bool) []byte {
	dst = wire.AppendUvarint(dst, sid)
	dst = wire.AppendUvarint(dst, uint64(batches))
	dst = wire.AppendBool(dst, queued)
	return dst
}

func decodeOpenOK(p []byte) (sid uint64, batches int, queued bool, err error) {
	r := wire.NewReader(p)
	sid = r.Uvarint("openok sid")
	batches = int(r.Uvarint("openok batches"))
	queued = r.Bool("openok queued")
	return sid, batches, queued, r.Done("openok")
}

func appendStatus(dst []byte, code byte, msg string) []byte {
	dst = append(dst, code)
	return wire.AppendStr(dst, msg)
}

func decodeStatus(p []byte) (code byte, msg string, err error) {
	r := wire.NewReader(p)
	code = r.Byte("status code")
	msg = r.Str("status message")
	return code, msg, r.Done("status")
}

func appendSID(dst []byte, sid uint64) []byte { return wire.AppendUvarint(dst, sid) }

func decodeSID(p []byte) (uint64, error) {
	r := wire.NewReader(p)
	sid := r.Uvarint("sid")
	return sid, r.Done("sid")
}

func appendDone(dst []byte, sid uint64, code byte, msg string) []byte {
	dst = wire.AppendUvarint(dst, sid)
	return appendStatus(dst, code, msg)
}

func decodeDone(p []byte) (sid uint64, code byte, msg string, err error) {
	r := wire.NewReader(p)
	sid = r.Uvarint("done sid")
	code = r.Byte("done code")
	msg = r.Str("done message")
	return sid, code, msg, r.Done("done")
}

// appendEstimate encodes one session update. Result tuples ride the
// fuzz-hardened spill-row codec (values + multiplicity, bit-exact floats);
// estimate cells are five raw Float64bits words each.
func appendEstimate(dst []byte, sid uint64, u *Update) ([]byte, error) {
	dst = wire.AppendUvarint(dst, sid)
	dst = wire.AppendUvarint(dst, uint64(u.Batch))
	dst = wire.AppendUvarint(dst, uint64(u.Batches))
	dst = wire.AppendF64(dst, u.Fraction)
	dst = wire.AppendF64(dst, u.DurationMillis)
	dst = wire.AppendUvarint(dst, uint64(u.Recomputed))
	dst = wire.AppendUvarint(dst, uint64(len(u.Columns)))
	for _, c := range u.Columns {
		dst = wire.AppendStr(dst, c)
	}
	dst = wire.AppendUvarint(dst, uint64(u.Result.Len()))
	var rows []byte
	var err error
	for _, tp := range u.Result.Tuples {
		rows, err = storage.AppendSpillRow(rows, tp.Vals, tp.Mult, nil)
		if err != nil {
			return nil, fmt.Errorf("serve: encode result row: %w", err)
		}
	}
	dst = wire.AppendBytes(dst, rows)
	for i := range u.Result.Tuples {
		var es []bootstrap.Estimate
		if i < len(u.Estimates) {
			es = u.Estimates[i]
		}
		dst = wire.AppendUvarint(dst, uint64(len(es)))
		dst = core.AppendEstimates(dst, es)
	}
	return dst, nil
}

// maxEstimateCells bounds the decoded estimate matrix. core.ReadEstimates
// already refuses a count its payload cannot carry (5 words per cell), so
// the cap is belt-and-braces against allocation bombs.
const maxEstimateCells = 1 << 22

func decodeEstimate(p []byte) (sid uint64, u *Update, err error) {
	r := wire.NewReader(p)
	sid = r.Uvarint("estimate sid")
	u = &Update{
		Batch:   int(r.Uvarint("estimate batch")),
		Batches: int(r.Uvarint("estimate batches")),
	}
	u.Fraction = r.F64("estimate fraction")
	u.DurationMillis = r.F64("estimate duration")
	u.Recomputed = int(r.Uvarint("estimate recomputed"))
	ncols := r.Count("estimate column count")
	if r.Err() != nil {
		return 0, nil, r.Err()
	}
	u.Columns = make([]string, ncols)
	for i := range u.Columns {
		u.Columns[i] = r.Str("estimate column name")
	}
	nrows := int(r.Uvarint("estimate row count"))
	rowsBlob := r.Bytes("estimate rows")
	if err := r.Err(); err != nil {
		return 0, nil, err
	}
	if nrows > len(rowsBlob) { // every encoded row costs >= 1 byte
		return 0, nil, fmt.Errorf("serve: estimate row count %d exceeds payload", nrows)
	}
	schema := make(rel.Schema, ncols)
	for i, c := range u.Columns {
		schema[i] = rel.Column{Name: c, Type: rel.KNull}
	}
	result := rel.NewRelation(schema)
	rows := wire.NewReader(rowsBlob)
	for i := 0; i < nrows && rows.Err() == nil; i++ {
		vals, mult, _ := storage.ReadSpillRow(rows)
		if rows.Err() == nil && len(vals) != ncols {
			return 0, nil, fmt.Errorf("serve: estimate row %d has %d values, want %d", i, len(vals), ncols)
		}
		result.Tuples = append(result.Tuples, rel.Tuple{Vals: vals, Mult: mult})
		// Give the reconstructed schema the kinds of the first row so the
		// client-side relation renders like the server's.
		if i == 0 {
			for j, v := range vals {
				schema[j].Type = v.Kind()
			}
		}
	}
	if err := rows.Done("estimate rows"); err != nil {
		return 0, nil, fmt.Errorf("serve: %w", err)
	}
	u.Result = result
	totalCells := 0
	u.Estimates = make([][]bootstrap.Estimate, nrows)
	for i := 0; i < nrows && r.Err() == nil; i++ {
		nest := r.Count("estimate est count")
		if nest == 0 {
			continue
		}
		if totalCells += nest; totalCells > maxEstimateCells {
			return 0, nil, fmt.Errorf("serve: estimate carries more than %d cells", maxEstimateCells)
		}
		u.Estimates[i] = core.ReadEstimates(r, nest)
	}
	return sid, u, r.Done("estimate")
}
