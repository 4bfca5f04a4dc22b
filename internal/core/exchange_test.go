package core

import (
	"math"
	"testing"

	"iolap/internal/bootstrap"
	"iolap/internal/delta"
	"iolap/internal/expr"
	"iolap/internal/rel"
	"iolap/internal/wire"
	"iolap/internal/wire/wiretest"
)

// Span fixtures: small, but every value kind (lineage refs included),
// non-unit multiplicities, weights and NaN/Inf/-0 floats.

var spanVerdicts = []selVerdict{{expr.True, true}, {expr.False, false}, {expr.Unknown, true}, {expr.Unknown, false}}

var spanBools = []bool{true, false, false, true, true}

var spanRows = []delta.Row{
	{Vals: []rel.Value{rel.Int(-7), rel.String("c1"), rel.Float(math.Inf(-1))}, Mult: 1, W: []float64{1, 0, 2}},
	{Vals: []rel.Value{rel.Null(), rel.Bool(true), rel.NewRef(rel.Ref{Op: 3, Key: "g|x", Col: 1})}, Mult: 2.5},
}

func spanSink() (*rel.Relation, [][]bootstrap.Estimate) {
	res := rel.NewRelation(rel.Schema{{Name: "k", Type: rel.KString}, {Name: "v", Type: rel.KFloat}})
	res.Tuples = []rel.Tuple{
		{Vals: []rel.Value{rel.String("a"), rel.Float(123.456)}, Mult: 1},
		{Vals: []rel.Value{rel.Null(), rel.Float(math.Copysign(0, -1))}, Mult: 0.125},
	}
	ests := [][]bootstrap.Estimate{
		{{}, {Value: 123.456, Stdev: 1.5, CILo: 120, CIHi: 126, RelStd: 0.012}},
		{{}, {Value: math.NaN(), Stdev: math.SmallestNonzeroFloat64}},
	}
	return res, ests
}

// mustEncode(t)(encode(...)) unwraps an encoder's (bytes, error) result.
func mustEncode(t testing.TB) func([]byte, error) []byte {
	return func(p []byte, err error) []byte {
		t.Helper()
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		return p
	}
}

// spanMessages lists every span codec once for the shared corruption table
// and fuzz target (wiretest).
func spanMessages(t testing.TB) []wiretest.Message {
	res, ests := spanSink()
	rowSpan := mustEncode(t)(encodeRowSpan(spanRows))
	return []wiretest.Message{
		{
			Name:  "verdict span",
			Valid: encodeVerdictSpan(spanVerdicts, 0, len(spanVerdicts)),
			Recode: func(p []byte) ([]byte, error) {
				vs := make([]selVerdict, len(spanVerdicts))
				if err := decodeVerdictSpan(vs, 0, len(vs), p); err != nil {
					return nil, err
				}
				return encodeVerdictSpan(vs, 0, len(vs)), nil
			},
		},
		{
			Name:  "bool span",
			Valid: encodeBoolSpan(spanBools, 0, len(spanBools)),
			Recode: func(p []byte) ([]byte, error) {
				pass := make([]bool, len(spanBools))
				if err := decodeBoolSpan(pass, 0, len(pass), p); err != nil {
					return nil, err
				}
				return encodeBoolSpan(pass, 0, len(pass)), nil
			},
		},
		{
			Name:  "row span",
			Valid: rowSpan,
			Recode: func(p []byte) ([]byte, error) {
				rows, err := decodeRowSpan(p)
				if err != nil {
					return nil, err
				}
				return encodeRowSpan(rows)
			},
			Lies: [][]byte{
				append(wire.AppendUvarint(nil, 1<<40), rowSpan[1:]...), // row count
				append([]byte{3}, rowSpan[1:]...),                      // one more row than carried: within Count's bound, still a lie
			},
		},
		{
			Name:  "sink span",
			Valid: mustEncode(t)(encodeSinkSpan(res, ests, 0, 2, 2)),
			Recode: func(p []byte) ([]byte, error) {
				out := rel.NewRelation(res.Schema)
				out.Tuples = make([]rel.Tuple, 2)
				oe := make([][]bootstrap.Estimate, 2)
				if err := decodeSinkSpan(out, oe, 0, 2, 2, p); err != nil {
					return nil, err
				}
				return encodeSinkSpan(out, oe, 0, 2, 2)
			},
		},
	}
}

// TestSpanDecodersRejectCorruption: lying counts, truncation at every byte
// offset and trailing bytes return errors — never a panic or an allocation
// sized off the wire (the row span decoder trusted its count before the
// port onto wire.Reader).
func TestSpanDecodersRejectCorruption(t *testing.T) { wiretest.Check(t, spanMessages(t)) }

func FuzzWire(f *testing.F) { wiretest.Fuzz(f, spanMessages(f)) }

// TestSpanGoldenBytes pins the span encodings to the bytes the pre-wire
// codecs produced (captured at the parent commit): the port is a replace,
// not a format change.
func TestSpanGoldenBytes(t *testing.T) {
	want := map[string]string{
		"verdict span": "05000602",
		"bool span":    "0100000101",
		"row span":     "023103020d0402633103000000000000f0ff000000000000f03f03000000000000f03f00000000000000000000000000000040140300010105060203677c78000000000000044000",
		"sink span":    "16020401610377be9f1a2fdd5e40000000000000f03f000000000000000000000000000000000000000000000000000000000000000000000000000000000077be9f1a2fdd5e40000000000000f83f0000000000005e400000000000805f40fa7e6abc7493883f140200030000000000000080000000000000c03f0000000000000000000000000000000000000000000000000000000000000000000000000000000000010000000000f87f0100000000000000000000000000000000000000000000000000000000000000",
	}
	wiretest.Golden(t, spanMessages(t), want)
}
