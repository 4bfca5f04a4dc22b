package serve

import (
	"math"
	"testing"

	"iolap/internal/bootstrap"
	"iolap/internal/rel"
	"iolap/internal/storage"
	"iolap/internal/wire"
	"iolap/internal/wire/wiretest"
)

func testUpdate() *Update {
	result := rel.NewRelation(rel.Schema{
		{Name: "cdn", Type: rel.KString},
		{Name: "spt", Type: rel.KFloat},
		{Name: "n", Type: rel.KInt},
	})
	result.Tuples = append(result.Tuples,
		rel.Tuple{Vals: []rel.Value{rel.String("c1"), rel.Float(123.456), rel.Int(42)}, Mult: 2.5},
		rel.Tuple{Vals: []rel.Value{rel.String("c2"), rel.Float(math.Inf(1)), rel.Int(-7)}, Mult: 1},
		rel.Tuple{Vals: []rel.Value{rel.Null(), rel.Float(-0.0), rel.Int(0)}, Mult: 0.125},
	)
	return &Update{
		Batch: 3, Batches: 10, Fraction: 0.3,
		Columns: []string{"cdn", "spt", "n"},
		Result:  result,
		Estimates: [][]bootstrap.Estimate{
			{{}, {Value: 123.456, Stdev: 1.5, CILo: 120, CIHi: 126, RelStd: 0.012}, {}},
			nil, // rows without estimates stay without estimates
			{{}, {Value: math.NaN(), Stdev: math.SmallestNonzeroFloat64}, {}},
		},
	}
}

func TestEstimateRoundTrip(t *testing.T) {
	u := testUpdate()
	p, err := appendEstimate(nil, 99, u)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	sid, got, err := decodeEstimate(p)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if sid != 99 {
		t.Fatalf("sid = %d, want 99", sid)
	}
	if !updateBitIdentical(got, u) {
		t.Fatal("round-trip changed the update")
	}
}

// TestEstimateTruncationRejected: every proper prefix of a valid estimate
// frame must fail to decode — no silent partial results.
func TestEstimateTruncationRejected(t *testing.T) {
	p, err := appendEstimate(nil, 7, testUpdate())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(p); i++ {
		if _, _, err := decodeEstimate(p[:i]); err == nil {
			t.Fatalf("decode of %d/%d-byte prefix succeeded", i, len(p))
		}
	}
}

func TestOpenRoundTrip(t *testing.T) {
	o := openReq{
		Tenant: "acme", Stream: "sessions",
		Query: "SELECT COUNT(*) FROM sessions", Mode: 2,
		Trials: -1, SlackBits: math.Float64bits(2.5),
		Seed: 1 << 60, Workers: 8, StateBudget: -4096,
	}
	got, err := decodeOpen(appendOpen(nil, o))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got != o {
		t.Fatalf("round-trip: got %+v, want %+v", got, o)
	}
	// A wrong protocol version is rejected outright.
	bad := appendOpen(nil, o)
	bad[0] = sessionProtoVersion + 1
	if _, err := decodeOpen(bad); err == nil {
		t.Fatal("version mismatch accepted")
	}
}

func TestControlFramesRoundTrip(t *testing.T) {
	sid, batches, queued, err := decodeOpenOK(appendOpenOK(nil, 12, 10, true))
	if err != nil || sid != 12 || batches != 10 || !queued {
		t.Fatalf("openok: %d %d %v %v", sid, batches, queued, err)
	}
	code, msg, err := decodeStatus(appendStatus(nil, codeBudget, "no budget"))
	if err != nil || code != codeBudget || msg != "no budget" {
		t.Fatalf("status: %d %q %v", code, msg, err)
	}
	dsid, dcode, dmsg, err := decodeDone(appendDone(nil, 3, codeCancelled, "bye"))
	if err != nil || dsid != 3 || dcode != codeCancelled || dmsg != "bye" {
		t.Fatalf("done: %d %d %q %v", dsid, dcode, dmsg, err)
	}
	csid, err := decodeSID(appendSID(nil, 1<<40))
	if err != nil || csid != 1<<40 {
		t.Fatalf("sid: %d %v", csid, err)
	}
	// Trailing garbage after any control frame is corruption.
	if _, _, _, err := decodeOpenOK(append(appendOpenOK(nil, 1, 2, false), 0)); err == nil {
		t.Fatal("openok trailing byte accepted")
	}
	if _, err := decodeSID(append(appendSID(nil, 5), 9)); err == nil {
		t.Fatal("sid trailing byte accepted")
	}
}

// wireMessages lists every session-protocol payload codec once for the
// shared corruption table and fuzz target (wiretest).
func wireMessages(t testing.TB) []wiretest.Message {
	est, err := appendEstimate(nil, 5, testUpdate())
	if err != nil {
		t.Fatalf("encode estimate: %v", err)
	}
	// An estimate header up to (not including) the column count: sid, batch,
	// batches, fraction, duration, recomputed.
	head := wire.AppendUvarint(wire.AppendF64(wire.AppendF64([]byte{5, 3, 10}, 0.3), 0), 0)
	head = head[:len(head):len(head)] // each lie appends to its own copy
	emptyRow, _ := storage.AppendSpillRow(nil, nil, 1, nil)
	const huge = 1 << 40
	return []wiretest.Message{
		{
			Name: "open",
			Valid: appendOpen(nil, openReq{
				Tenant: "acme", Stream: "sessions", Query: "SELECT COUNT(*) FROM sessions", Mode: 2,
				Trials: -1, SlackBits: math.Float64bits(2.5), Seed: 1 << 60, Workers: 8, StateBudget: -4096}),
			Recode: func(p []byte) ([]byte, error) {
				o, err := decodeOpen(p)
				if err != nil {
					return nil, err
				}
				return appendOpen(nil, o), nil
			},
			Lies: [][]byte{wire.AppendUvarint([]byte{sessionProtoVersion}, huge)}, // tenant length
		},
		{
			Name:  "openOK",
			Valid: appendOpenOK(nil, 1, 10, true),
			Recode: func(p []byte) ([]byte, error) {
				sid, batches, queued, err := decodeOpenOK(p)
				if err != nil {
					return nil, err
				}
				return appendOpenOK(nil, sid, batches, queued), nil
			},
		},
		{
			Name:  "status",
			Valid: appendStatus(nil, codeBudget, "over budget"),
			Recode: func(p []byte) ([]byte, error) {
				code, msg, err := decodeStatus(p)
				if err != nil {
					return nil, err
				}
				return appendStatus(nil, code, msg), nil
			},
			Lies: [][]byte{wire.AppendUvarint([]byte{codeError}, huge)}, // message length
		},
		{
			Name:  "sid",
			Valid: appendSID(nil, 1<<40),
			Recode: func(p []byte) ([]byte, error) {
				sid, err := decodeSID(p)
				if err != nil {
					return nil, err
				}
				return appendSID(nil, sid), nil
			},
		},
		{
			Name:  "done",
			Valid: appendDone(nil, 2, codeCancelled, "bye"),
			Recode: func(p []byte) ([]byte, error) {
				sid, code, msg, err := decodeDone(p)
				if err != nil {
					return nil, err
				}
				return appendDone(nil, sid, code, msg), nil
			},
		},
		{
			Name:  "estimate",
			Valid: est,
			Recode: func(p []byte) ([]byte, error) {
				sid, u, err := decodeEstimate(p)
				if err != nil {
					return nil, err
				}
				return appendEstimate(nil, sid, u)
			},
			Lies: [][]byte{
				wire.AppendUvarint(head, huge), // column count
				wire.AppendBytes(wire.AppendUvarint(wire.AppendUvarint(head, 0), huge), emptyRow),                        // row count
				append(wire.AppendUvarint(wire.AppendUvarint(head, 0), 9), 0),                                            // 9 rows in an empty rows blob
				wire.AppendUvarint(wire.AppendBytes(wire.AppendUvarint(wire.AppendUvarint(head, 0), 1), emptyRow), huge), // est count of row 0
			},
		},
	}
}

// TestDecodersRejectCorruption: lying counts, truncation at every byte offset
// and trailing bytes return errors from every session-protocol decoder —
// never a panic or an allocation sized off the wire.
func TestDecodersRejectCorruption(t *testing.T) { wiretest.Check(t, wireMessages(t)) }

// FuzzWire drives every session-protocol decoder with arbitrary payloads
// (the message type selects the decoder) and enforces the round-trip
// property: anything that decodes must re-encode to a payload that decodes
// to the same value, floats compared by bits.
func FuzzWire(f *testing.F) { wiretest.Fuzz(f, wireMessages(f)) }

// TestGoldenBytes pins the session-protocol encodings (version 1) to the
// bytes produced before the codecs moved onto internal/wire, captured at the
// parent commit: the port is a replace, not a format change.
func TestGoldenBytes(t *testing.T) {
	want := map[string]string{
		"open":     "010461636d650873657373696f6e731d53454c45435420434f554e54282a292046524f4d2073657373696f6e7302010000000000000440000000000000001008ff3f",
		"openOK":   "010a01",
		"status":   "030b6f76657220627564676574",
		"sid":      "808080808020",
		"done":     "020103627965",
		"estimate": "05030a333333333333d33f000000000000000000030363646e03737074016e034b1903040263310377be9f1a2fdd5e40025400000000000004400019030402633203000000000000f07f020d000000000000f03f001603000300000000000000000200000000000000c03f00030000000000000000000000000000000000000000000000000000000000000000000000000000000077be9f1a2fdd5e40000000000000f83f0000000000005e400000000000805f40fa7e6abc7493883f00000000000000000000000000000000000000000000000000000000000000000000000000000000000300000000000000000000000000000000000000000000000000000000000000000000000000000000010000000000f87f010000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000",
	}
	wiretest.Golden(t, wireMessages(t), want)
}
