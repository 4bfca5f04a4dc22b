package storage

import (
	"bytes"
	"math"
	"testing"

	"iolap/internal/rel"
)

// seedSpillRow encodes one representative row for the fuzz corpus.
func seedSpillRow(t testing.TB, vals []rel.Value, mult float64, w []float64) []byte {
	t.Helper()
	b, err := AppendSpillRow(nil, vals, mult, w)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// FuzzRowCodec drives DecodeSpillRow with arbitrary bytes. Two properties:
//
//  1. No input may panic or over-read: the decoder either fails cleanly or
//     consumes exactly the bytes the length prefix promised.
//  2. Any input that decodes must round-trip: re-encoding the decoded row
//     and decoding again yields the same values (value-level, not
//     byte-level — varints accept non-minimal encodings, so corrupt-but-
//     decodable inputs can be longer than their canonical form).
func FuzzRowCodec(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00})
	f.Add(seedSpillRow(f, nil, 0, nil))
	f.Add(seedSpillRow(f, []rel.Value{rel.Int(1), rel.String("x")}, 1, []float64{1, 2}))
	f.Add(seedSpillRow(f, []rel.Value{rel.Null(), rel.Bool(true), rel.Float(math.NaN())}, 2.5, nil))
	f.Add(seedSpillRow(f, []rel.Value{rel.NewRef(rel.Ref{Op: 3, Key: "k|v", Col: 1})}, 1, []float64{0}))
	f.Add(seedSpillRow(f, []rel.Value{rel.String("日本語"), rel.Int(-1)}, -1, []float64{math.Inf(1)}))

	f.Fuzz(func(t *testing.T, data []byte) {
		vals, mult, w, n, err := DecodeSpillRow(data)
		if err != nil {
			return // rejected cleanly — fine
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("decode consumed %d of %d bytes", n, len(data))
		}
		if size, err := SpillRowSize(data); err != nil || size != n {
			t.Fatalf("SpillRowSize = (%d, %v), decode consumed %d", size, err, n)
		}
		// Round-trip: canonical re-encoding must decode to the same row.
		enc, err := AppendSpillRow(nil, vals, mult, w)
		if err != nil {
			t.Fatalf("re-encode of decoded row failed: %v", err)
		}
		vals2, mult2, w2, n2, err := DecodeSpillRow(enc)
		if err != nil {
			t.Fatalf("decode of re-encoding failed: %v", err)
		}
		if n2 != len(enc) {
			t.Fatalf("canonical encoding has %d trailing bytes", len(enc)-n2)
		}
		if len(vals2) != len(vals) {
			t.Fatalf("round-trip changed value count %d -> %d", len(vals), len(vals2))
		}
		for i := range vals {
			if !spillValueIdentical(vals[i], vals2[i]) {
				t.Fatalf("value %d changed: %v -> %v", i, vals[i], vals2[i])
			}
		}
		if math.Float64bits(mult2) != math.Float64bits(mult) {
			t.Fatalf("mult changed: %v -> %v", mult, mult2)
		}
		if len(w2) != len(w) {
			t.Fatalf("weight count changed %d -> %d", len(w), len(w2))
		}
		for i := range w {
			if math.Float64bits(w2[i]) != math.Float64bits(w[i]) {
				t.Fatalf("weight %d changed: %v -> %v", i, w[i], w2[i])
			}
		}
		// And the canonical encoding is a fixed point of encode∘decode.
		enc2, err := AppendSpillRow(nil, vals2, mult2, w2)
		if err != nil || !bytes.Equal(enc, enc2) {
			t.Fatalf("canonical encoding is not a fixed point (err %v)", err)
		}
	})
}

// seedBlock encodes one representative block for the fuzz corpus.
func seedBlock(t testing.TB, schema rel.Schema, tuples []rel.Tuple, compress bool) []byte {
	t.Helper()
	b, err := EncodeBlock(nil, schema, tuples, compress)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// fuzzBlockSchema is the schema FuzzBlockCodec decodes against — wide enough
// to exercise every column encoding.
var fuzzBlockSchema = rel.Schema{
	{Name: "i", Type: rel.KInt},
	{Name: "f", Type: rel.KFloat},
	{Name: "s", Type: rel.KString},
	{Name: "b", Type: rel.KBool},
}

// FuzzBlockCodec mirrors FuzzRowCodec for the columnar block codec: no input
// may panic or over-allocate, and any input that decodes must round-trip
// bit-identically through a canonical re-encoding — with the compressed and
// uncompressed re-encodings agreeing on the decoded contents.
func FuzzBlockCodec(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{blockVersion})
	f.Add([]byte{blockVersion | blockFlagFlate, 1, 4, 0})
	mk := func(vals ...rel.Value) rel.Tuple { return rel.Tuple{Vals: vals, Mult: 1} }
	f.Add(seedBlock(f, fuzzBlockSchema, nil, false))
	f.Add(seedBlock(f, fuzzBlockSchema, []rel.Tuple{
		mk(rel.Int(7), rel.Float(math.NaN()), rel.String("x"), rel.Bool(true)),
		mk(rel.Null(), rel.Null(), rel.Null(), rel.Null()),
		{Vals: []rel.Value{rel.Int(-1), rel.Float(0), rel.String("x"), rel.Bool(false)}, Mult: 2.5},
		mk(rel.String("mixed"), rel.Int(1), rel.String("y"), rel.Null()),
	}, false))
	f.Add(seedBlock(f, fuzzBlockSchema, []rel.Tuple{
		mk(rel.Int(1), rel.Float(1.5), rel.String("日本語"), rel.Bool(false)),
		mk(rel.Int(1<<40), rel.Float(math.Inf(-1)), rel.String("日本語"), rel.Bool(true)),
	}, true))

	f.Fuzz(func(t *testing.T, data []byte) {
		tuples, err := DecodeBlock(data, fuzzBlockSchema)
		if err != nil {
			return // rejected cleanly — fine
		}
		for _, compress := range []bool{false, true} {
			enc, err := EncodeBlock(nil, fuzzBlockSchema, tuples, compress)
			if err != nil {
				t.Fatalf("re-encode (compress=%v) of decoded block failed: %v", compress, err)
			}
			tuples2, err := DecodeBlock(enc, fuzzBlockSchema)
			if err != nil {
				t.Fatalf("decode of re-encoding (compress=%v) failed: %v", compress, err)
			}
			if len(tuples2) != len(tuples) {
				t.Fatalf("round-trip changed row count %d -> %d", len(tuples), len(tuples2))
			}
			for i := range tuples {
				if math.Float64bits(tuples2[i].Mult) != math.Float64bits(tuples[i].Mult) {
					t.Fatalf("row %d mult changed: %v -> %v", i, tuples[i].Mult, tuples2[i].Mult)
				}
				for c := range tuples[i].Vals {
					if !spillValueIdentical(tuples[i].Vals[c], tuples2[i].Vals[c]) {
						t.Fatalf("row %d col %d changed: %v -> %v (compress=%v)",
							i, c, tuples[i].Vals[c], tuples2[i].Vals[c], compress)
					}
				}
			}
		}
	})
}

// spillValueIdentical is bit-precise equality: rel.Value.Equal compares
// INT/FLOAT numerically and NaN != NaN, neither of which is what a codec
// round-trip check wants.
func spillValueIdentical(a, b rel.Value) bool {
	if a.Kind() != b.Kind() {
		return false
	}
	switch a.Kind() {
	case rel.KNull:
		return true
	case rel.KBool:
		return a.Bool() == b.Bool()
	case rel.KInt:
		return a.Int() == b.Int()
	case rel.KFloat:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case rel.KString:
		return a.Str() == b.Str()
	case rel.KRef:
		return a.Ref() == b.Ref()
	}
	return false
}

// seedTable encodes one representative table file for the fuzz corpus.
func seedTable(t testing.TB, r *rel.Relation, blockRows int, compress bool) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteColumnar(&buf, r, blockRows, compress); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzTableCodec drives storage.Read — both the legacy IOL1 row format and
// the IOL2 tagged columnar format — with arbitrary bytes. Properties:
//
//  1. No input may panic, hang, or force an implausible allocation: the
//     reader either fails cleanly or returns a well-formed table.
//  2. Any input that decodes must round-trip through the writer, raw and
//     compressed: the re-encoded file decodes to the same rows in the same
//     order with the same schema.
func FuzzTableCodec(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("IOL1"))
	f.Add([]byte("IOL2"))
	f.Add([]byte("IOL3"))
	f.Add([]byte{'I', 'O', 'L', '2', 1, 1, 'x', byte(rel.KInt), 3})                                                       // bad tag
	f.Add([]byte{'I', 'O', 'L', '2', 1, 1, 'x', byte(rel.KInt), 2, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}) // huge columnar length
	empty := rel.NewRelation(rel.Schema{{Name: "a", Type: rel.KInt}})
	f.Add([]byte{'I', 'O', 'L', '1', 1, 1, 'a', byte(rel.KInt), 0}) // empty v1 table
	f.Add(goldenV1(f))
	f.Add(seedTable(f, empty, 4, false))
	f.Add(seedTable(f, sampleRel(37), 8, false))
	f.Add(seedTable(f, sampleRel(64), 16, true))
	f.Add(seedTable(f, sampleRelWithRefs(33), 8, true))
	// Pre-corrupted variants of a valid columnar file.
	valid := seedTable(f, sampleRel(20), 8, true)
	for _, i := range []int{4, 5, len(valid) / 2, len(valid) - 2} {
		mut := append([]byte(nil), valid...)
		mut[i] ^= 0xff
		f.Add(mut)
	}
	f.Add(valid[:len(valid)-3])

	f.Fuzz(func(t *testing.T, data []byte) {
		table, err := Read(bytes.NewReader(data))
		if err != nil {
			return // rejected cleanly — fine
		}
		src := table.Rel
		for _, compress := range []bool{false, true} {
			buf := seedTable(t, src, 8, compress)
			got, err := Read(bytes.NewReader(buf))
			if err != nil {
				t.Fatalf("compress=%v: re-read of re-encoding failed: %v", compress, err)
			}
			if !src.Schema.Equal(got.Rel.Schema) {
				t.Fatalf("compress=%v: schema changed across round-trip", compress)
			}
			if src.Len() != got.Rel.Len() {
				t.Fatalf("compress=%v: %d rows became %d", compress, src.Len(), got.Rel.Len())
			}
			for i := range src.Tuples {
				for c := range src.Schema {
					if !src.Tuples[i].Vals[c].Equal(got.Rel.Tuples[i].Vals[c]) {
						t.Fatalf("compress=%v: row %d col %d changed", compress, i, c)
					}
				}
			}
		}
	})
}
