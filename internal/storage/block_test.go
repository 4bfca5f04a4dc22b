package storage

import (
	"math"
	"strconv"
	"testing"

	"iolap/internal/rel"
	"iolap/internal/wire"
	"iolap/internal/wire/wiretest"
)

// blockFixtures returns (name, schema, tuples) triples spanning the codec's
// encodings: typed banks, nulls, dictionaries, mixed-kind columns, unusual
// multiplicities, and empty blocks.
func blockFixtures() []struct {
	name   string
	schema rel.Schema
	tuples []rel.Tuple
} {
	mk := func(mult float64, vals ...rel.Value) rel.Tuple {
		return rel.Tuple{Vals: vals, Mult: mult}
	}
	intCol := rel.Schema{{Name: "a", Type: rel.KInt}}
	wide := rel.Schema{
		{Name: "id", Type: rel.KString},
		{Name: "n", Type: rel.KInt},
		{Name: "x", Type: rel.KFloat},
		{Name: "ok", Type: rel.KBool},
		{Name: "grp", Type: rel.KString},
	}
	var wideRows []rel.Tuple
	for i := 0; i < 300; i++ {
		var x rel.Value = rel.Float(float64(i) / 7)
		if i%11 == 0 {
			x = rel.Null()
		}
		wideRows = append(wideRows, mk(1,
			rel.String("id-"+strconv.Itoa(i)),
			rel.Int(int64(i*i-40)),
			x,
			rel.Bool(i%3 == 0),
			rel.String("g"+strconv.Itoa(i%5)), // 5 distinct values: dictionary
		))
	}
	return []struct {
		name   string
		schema rel.Schema
		tuples []rel.Tuple
	}{
		{"empty", intCol, nil},
		{"one-int", intCol, []rel.Tuple{mk(1, rel.Int(42))}},
		{"all-null", intCol, []rel.Tuple{mk(1, rel.Null()), mk(1, rel.Null())}},
		{"neg-delta", intCol, []rel.Tuple{mk(1, rel.Int(1<<40)), mk(1, rel.Int(-5)), mk(1, rel.Int(math.MaxInt64)), mk(1, rel.Int(math.MinInt64))}},
		{"mixed-kinds", intCol, []rel.Tuple{mk(1, rel.Int(7)), mk(2.5, rel.String("x")), mk(1, rel.Bool(true)), mk(1, rel.Null())}},
		{"mults", intCol, []rel.Tuple{mk(0, rel.Int(1)), mk(-3.5, rel.Int(2)), mk(math.Inf(1), rel.Int(3))}},
		{"nan-floats", rel.Schema{{Name: "f", Type: rel.KFloat}}, []rel.Tuple{
			mk(1, rel.Float(math.NaN())), mk(1, rel.Float(math.Copysign(0, -1))), mk(1, rel.Null()),
		}},
		{"bools-with-nulls", rel.Schema{{Name: "b", Type: rel.KBool}}, []rel.Tuple{
			mk(1, rel.Bool(true)), mk(1, rel.Null()), mk(1, rel.Bool(false)), mk(1, rel.Bool(true)),
		}},
		{"unicode-strings", rel.Schema{{Name: "s", Type: rel.KString}}, []rel.Tuple{
			mk(1, rel.String("日本語")), mk(1, rel.String("")), mk(1, rel.Null()), mk(1, rel.String("日本語")),
		}},
		{"wide", wide, wideRows},
	}
}

func blockTuplesIdentical(t *testing.T, want, got []rel.Tuple) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("row count %d, want %d", len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i].Mult) != math.Float64bits(want[i].Mult) {
			t.Fatalf("row %d mult %v, want %v", i, got[i].Mult, want[i].Mult)
		}
		if len(got[i].Vals) != len(want[i].Vals) {
			t.Fatalf("row %d has %d values, want %d", i, len(got[i].Vals), len(want[i].Vals))
		}
		for c := range want[i].Vals {
			if !spillValueIdentical(want[i].Vals[c], got[i].Vals[c]) {
				t.Fatalf("row %d col %d: %v, want %v", i, c, got[i].Vals[c], want[i].Vals[c])
			}
		}
	}
}

// TestBlockCodecRoundTrip checks bit-exact round trips for every fixture,
// compressed and not — and that the two paths decode to identical tuples
// (compression must never change contents).
func TestBlockCodecRoundTrip(t *testing.T) {
	for _, fx := range blockFixtures() {
		for _, compress := range []bool{false, true} {
			enc, err := EncodeBlock(nil, fx.schema, fx.tuples, compress)
			if err != nil {
				t.Fatalf("%s compress=%v: encode: %v", fx.name, compress, err)
			}
			got, err := DecodeBlock(enc, fx.schema)
			if err != nil {
				t.Fatalf("%s compress=%v: decode: %v", fx.name, compress, err)
			}
			blockTuplesIdentical(t, fx.tuples, got)
		}
	}
}

// TestBlockCodecCompressionShrinks pins the point of the PR: a large
// repetitive block gets materially smaller with compression on, and the
// columnar encoding alone already beats the row codec.
func TestBlockCodecCompressionShrinks(t *testing.T) {
	schema := rel.Schema{{Name: "id", Type: rel.KString}, {Name: "grp", Type: rel.KString}, {Name: "v", Type: rel.KFloat}}
	var tuples []rel.Tuple
	var rowBytes []byte
	for i := 0; i < 4096; i++ {
		tp := rel.Tuple{Vals: []rel.Value{
			rel.String("key-" + strconv.Itoa(i)),
			rel.String("g" + strconv.Itoa(i%8)),
			rel.Float(float64(i % 97)),
		}, Mult: 1}
		tuples = append(tuples, tp)
		var err error
		rowBytes, err = AppendSpillRow(rowBytes, tp.Vals, tp.Mult, nil)
		if err != nil {
			t.Fatal(err)
		}
	}
	raw, err := EncodeBlock(nil, schema, tuples, false)
	if err != nil {
		t.Fatal(err)
	}
	comp, err := EncodeBlock(nil, schema, tuples, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) >= len(rowBytes) {
		t.Errorf("columnar block (%d B) not smaller than row codec (%d B)", len(raw), len(rowBytes))
	}
	if 2*len(comp) > len(rowBytes) {
		t.Errorf("compressed block %d B is not >= 2x smaller than row codec %d B", len(comp), len(rowBytes))
	}
	if len(comp) >= len(raw) {
		t.Errorf("compression did not shrink the block: %d B vs %d B raw", len(comp), len(raw))
	}
	t.Logf("row codec %d B, columnar %d B, compressed %d B", len(rowBytes), len(raw), len(comp))
}

// TestBlockCodecRejectsRef: lineage references stay on the row codec.
func TestBlockCodecRejectsRef(t *testing.T) {
	schema := rel.Schema{{Name: "r", Type: rel.KFloat}}
	tuples := []rel.Tuple{{Vals: []rel.Value{rel.NewRef(rel.Ref{Op: 1, Key: "k", Col: 0})}, Mult: 1}}
	if _, err := EncodeBlock(nil, schema, tuples, false); err == nil {
		t.Fatal("EncodeBlock accepted a KRef value")
	}
}

// TestBlockCodecRejectsCorruptHeaders drives a few targeted corruptions:
// truncation, absurd row counts, arity mismatch, bad tags. None may panic or
// over-allocate; all must error.
func TestBlockCodecRejectsCorruptHeaders(t *testing.T) {
	schema := rel.Schema{{Name: "a", Type: rel.KInt}, {Name: "s", Type: rel.KString}}
	var tuples []rel.Tuple
	for i := 0; i < 100; i++ {
		tuples = append(tuples, rel.Tuple{Vals: []rel.Value{rel.Int(int64(i)), rel.String("s" + strconv.Itoa(i))}, Mult: 1})
	}
	enc, err := EncodeBlock(nil, schema, tuples, true)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(enc); i += 7 { // truncations
		if _, err := DecodeBlock(enc[:i], schema); err == nil {
			t.Fatalf("decode of %d/%d-byte truncation succeeded", i, len(enc))
		}
	}
	if _, err := DecodeBlock(enc, schema[:1]); err == nil {
		t.Fatal("decode with wrong arity succeeded")
	}
	// A row count vastly beyond what the bytes can hold must be rejected
	// before any allocation is sized from it.
	huge := []byte{blockVersion, 0xff, 0xff, 0xff, 0xff, 0x7f, 2, 4}
	if _, err := DecodeBlock(huge, schema); err == nil {
		t.Fatal("decode with absurd row count succeeded")
	}
	bad := append([]byte(nil), enc...)
	bad[0] = 0x0e // unknown version
	if _, err := DecodeBlock(bad, schema); err == nil {
		t.Fatal("decode with unknown version succeeded")
	}
}

// TestBlockDecoderRejectsCorruption runs the shared corruption table
// (wiretest) over every fixture's encoding: truncation at every byte offset,
// a trailing byte, a huge uvarint spliced over every offset, and hand-made
// lying counts — all errors, none a panic or an allocation sized off the
// bytes.
func TestBlockDecoderRejectsCorruption(t *testing.T) {
	var msgs []wiretest.Message
	for _, fx := range blockFixtures() {
		schema := fx.schema
		recode := func(p []byte) ([]byte, error) {
			tuples, err := DecodeBlock(p, schema)
			if err != nil {
				return nil, err
			}
			return EncodeBlock(nil, schema, tuples, false)
		}
		enc, err := EncodeBlock(nil, schema, fx.tuples, false)
		if err != nil {
			t.Fatalf("%s: %v", fx.name, err)
		}
		msgs = append(msgs, wiretest.Message{Name: fx.name, Valid: enc, Recode: recode})
	}
	// One-column uncompressed block with the given row count and body.
	blk := func(rows uint64, body ...byte) []byte {
		p := wire.AppendUvarint(wire.AppendUvarint([]byte{blockVersion}, rows), 1)
		return append(wire.AppendUvarint(p, uint64(len(body))), body...)
	}
	huge := wire.AppendUvarint(nil, 1<<40)
	msgs[1].Lies = [][]byte{ // "one-int": a one-column schema
		blk(1, append([]byte{blockMultOnes, colStrRaw, 0}, huge...)...),                         // string length
		blk(1, append([]byte{blockMultOnes, colStrDict, 0}, huge...)...),                        // dictionary size
		blk(60000, blockMultOnes, colInt, 0, 2),                                                 // row count the body cannot back
		append(wire.AppendUvarint([]byte{blockVersion | blockFlagFlate, 1, 1}, maxChunkRaw), 0), // 1 GiB promised by a 1-byte flate stream
	}
	wiretest.Check(t, msgs)
}

// TestChunkRoundTrip covers the spill-run chunk wrapper, including the
// below-threshold and incompressible pass-throughs.
func TestChunkRoundTrip(t *testing.T) {
	long := make([]byte, 8192)
	for i := range long {
		long[i] = byte(i % 7)
	}
	cases := [][]byte{{1}, []byte("short"), long}
	for _, raw := range cases {
		c := CompressChunk(raw, 64)
		got, err := ExpandChunk(c)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(raw) {
			t.Fatalf("chunk round-trip changed %d bytes", len(raw))
		}
	}
	if !ChunkCompressed(CompressChunk(long, 64)) {
		t.Error("8 KiB repetitive chunk did not compress")
	}
	if ChunkCompressed(CompressChunk([]byte("short"), 64)) {
		t.Error("below-threshold chunk was compressed")
	}
	if _, err := ExpandChunk([]byte{chunkMagic, 0x05, 0xff, 0x00}); err == nil {
		t.Error("corrupt compressed chunk expanded without error")
	}
}
