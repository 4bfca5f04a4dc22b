package storage

import (
	"bytes"
	"encoding/hex"
	"io"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"

	"iolap/internal/rel"
	"iolap/internal/wire/wiretest"
)

func sampleRel(n int) *rel.Relation {
	r := rel.NewRelation(rel.Schema{
		{Name: "id", Type: rel.KInt},
		{Name: "score", Type: rel.KFloat},
		{Name: "name", Type: rel.KString},
		{Name: "ok", Type: rel.KBool},
	})
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < n; i++ {
		var name rel.Value = rel.String(string(rune('a' + i%26)))
		if i%7 == 0 {
			name = rel.Null()
		}
		r.Append(rel.Int(int64(i)), rel.Float(rng.Float64()*100), name, rel.Bool(i%2 == 0))
	}
	return r
}

// goldenV1 is a v1 ("IOL1") file written by the last build that had a v1
// writer: sampleRelWithRefs(100) at 16 rows per block, with +Inf, -0 and a
// large negative int patched into rows 1..3. The writer is gone; the reader
// must keep loading such files.
func goldenV1(t testing.TB) []byte {
	t.Helper()
	b, err := os.ReadFile("testdata/v1_sample.iol")
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func goldenV1Rel() *rel.Relation {
	r := sampleRelWithRefs(100)
	r.Tuples[1].Vals[1] = rel.Float(math.Inf(1))
	r.Tuples[2].Vals[1] = rel.Float(math.Copysign(0, -1))
	r.Tuples[3].Vals[0] = rel.Int(-1 << 62)
	return r
}

// TestReadGoldenV1: the committed v1 file decodes to exactly the relation it
// was written from — every kind (lineage refs and NULLs included), float bit
// patterns, schema and block boundaries.
func TestReadGoldenV1(t *testing.T) {
	src := goldenV1Rel()
	table, err := Read(bytes.NewReader(goldenV1(t)))
	if err != nil {
		t.Fatal(err)
	}
	if table.V2 || table.Format() != "row v1" {
		t.Errorf("format = %q, want row v1", table.Format())
	}
	if !src.Schema.Equal(table.Rel.Schema) {
		t.Fatalf("schema lost: %v", table.Rel.Schema)
	}
	if src.Len() != table.Rel.Len() {
		t.Fatalf("%d rows, want %d", table.Rel.Len(), src.Len())
	}
	for i := range src.Tuples {
		for c := range src.Schema {
			if !spillValueIdentical(src.Tuples[i].Vals[c], table.Rel.Tuples[i].Vals[c]) {
				t.Fatalf("row %d col %d: got %v want %v", i, c, table.Rel.Tuples[i].Vals[c], src.Tuples[i].Vals[c])
			}
		}
	}
	// 100 rows at 16/block = 7 blocks, the last one partial.
	if table.Blocks() != 7 {
		t.Errorf("blocks = %d, want 7", table.Blocks())
	}
	if len(table.Block(6)) != 4 {
		t.Errorf("last block rows = %d, want 4", len(table.Block(6)))
	}
}

func TestRoundTripSpecialValues(t *testing.T) {
	r := rel.NewRelation(rel.Schema{{Name: "x", Type: rel.KFloat}, {Name: "i", Type: rel.KInt}})
	r.Append(rel.Float(math.Inf(1)), rel.Int(-1<<62))
	r.Append(rel.Float(-0.0), rel.Int(0))
	r.Append(rel.Null(), rel.Null())
	var buf bytes.Buffer
	if err := WriteColumnar(&buf, r, 0, false); err != nil {
		t.Fatal(err)
	}
	table, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(table.Rel.Tuples[0].Vals[0].Float(), 1) {
		t.Error("+Inf lost")
	}
	if table.Rel.Tuples[0].Vals[1].Int() != -1<<62 {
		t.Error("large negative int lost")
	}
	if !table.Rel.Tuples[2].Vals[0].IsNull() {
		t.Error("NULL lost")
	}
}

func TestReadErrors(t *testing.T) {
	if _, err := Read(bytes.NewReader(nil)); err == nil {
		t.Error("empty input must fail")
	}
	if _, err := Read(bytes.NewReader([]byte("NOPE"))); err == nil {
		t.Error("bad magic must fail")
	}
	// Truncated v1 file.
	v1 := goldenV1(t)
	if _, err := Read(bytes.NewReader(v1[:len(v1)/2])); err == nil {
		t.Error("truncated input must fail")
	}
}

func TestShuffleBlocksIsBlockwisePermutation(t *testing.T) {
	src := sampleRel(64)
	var buf bytes.Buffer
	WriteColumnar(&buf, src, 8, false)
	table, _ := Read(&buf)
	shuffled := table.ShuffleBlocks(5)
	if !rel.EqualBag(src, shuffled, 0) {
		t.Fatal("block shuffle must be a permutation")
	}
	// Rows within a block must stay contiguous and ordered: find row id 0;
	// the next 7 ids must be 1..7 (its block).
	idx := -1
	for i, tp := range shuffled.Tuples {
		if tp.Vals[0].Int() == 0 {
			idx = i
			break
		}
	}
	for off := 0; off < 8; off++ {
		if shuffled.Tuples[idx+off].Vals[0].Int() != int64(off) {
			t.Fatalf("block 0 no longer contiguous at offset %d", off)
		}
	}
	// Deterministic in the seed; different across seeds.
	again := table.ShuffleBlocks(5)
	for i := range shuffled.Tuples {
		if shuffled.Tuples[i].Vals[0].Int() != again.Tuples[i].Vals[0].Int() {
			t.Fatal("same seed must give same order")
		}
	}
	other := table.ShuffleBlocks(6)
	same := true
	for i := range shuffled.Tuples {
		if shuffled.Tuples[i].Vals[0].Int() != other.Tuples[i].Vals[0].Int() {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds should permute differently")
	}
}

func TestDefaultBlockRows(t *testing.T) {
	src := sampleRel(10)
	var buf bytes.Buffer
	if err := WriteColumnar(&buf, src, -5, false); err != nil {
		t.Fatal(err)
	}
	table, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if table.Blocks() != 1 {
		t.Errorf("10 rows under default block size should be 1 block, got %d", table.Blocks())
	}
}

// sampleRelWithRefs is sampleRel plus a KRef lineage cell every few rows —
// the columnar codec rejects those blocks, forcing the v2 writer's
// row-format fallback for exactly the blocks that contain one.
func sampleRelWithRefs(n int) *rel.Relation {
	r := sampleRel(n)
	for i := 0; i < r.Len(); i += 11 {
		r.Tuples[i].Vals[2] = rel.NewRef(rel.Ref{Op: 5, Key: "g", Col: 1})
	}
	return r
}

// TestColumnarRoundTrip: the v2 tagged format round-trips data, schema, and
// block boundaries identically to v1, with and without compression.
func TestColumnarRoundTrip(t *testing.T) {
	for _, compress := range []bool{false, true} {
		src := sampleRel(100)
		var buf bytes.Buffer
		if err := WriteColumnar(&buf, src, 16, compress); err != nil {
			t.Fatal(err)
		}
		table, err := Read(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if !rel.EqualBag(src, table.Rel, 0) {
			t.Fatalf("compress=%v: round trip lost data", compress)
		}
		if !src.Schema.Equal(table.Rel.Schema) {
			t.Fatalf("compress=%v: schema lost: %v", compress, table.Rel.Schema)
		}
		if table.Blocks() != 7 {
			t.Errorf("compress=%v: blocks = %d, want 7", compress, table.Blocks())
		}
		if len(table.Block(6)) != 4 {
			t.Errorf("compress=%v: last block rows = %d, want 4", compress, len(table.Block(6)))
		}
		// Row order must survive exactly (blocks are the shuffle unit).
		for i := range src.Tuples {
			for c := range src.Schema {
				if !src.Tuples[i].Vals[c].Equal(table.Rel.Tuples[i].Vals[c]) {
					t.Fatalf("compress=%v: row %d col %d differs", compress, i, c)
				}
			}
		}
	}
}

// TestColumnarRefFallback: blocks containing KRef cells are stored in row
// format (the columnar codec rejects lineage refs) and still round-trip.
func TestColumnarRefFallback(t *testing.T) {
	src := sampleRelWithRefs(64)
	var buf bytes.Buffer
	if err := WriteColumnar(&buf, src, 16, true); err != nil {
		t.Fatal(err)
	}
	// Every 16-row block contains a ref (stride 11 < 16): all four blocks
	// must have fallen back, which shows as tag 1 after the header.
	table, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !rel.EqualBag(src, table.Rel, 0) {
		t.Fatal("ref fallback lost data")
	}
	if table.Blocks() != 4 {
		t.Errorf("blocks = %d, want 4", table.Blocks())
	}
	for i := range src.Tuples {
		if !src.Tuples[i].Vals[2].Equal(table.Rel.Tuples[i].Vals[2]) {
			t.Fatalf("row %d ref cell lost", i)
		}
	}
}

// TestColumnarRowBlockBytes pins the row-block fallback's bytes (a KRef
// column, every kind, NULLs). The constant was generated by a writer with its
// own row encoder, so files stay byte-identical now that the fallback encodes
// through the spill codec.
func TestColumnarRowBlockBytes(t *testing.T) {
	const want = "494f4c320502696402046e616d6504017603026f6b01076c696e6561676505010202050404656173740300000000000004400101050a0202673102d8040003000000000000c0bf0100050e0000020e0101050a0000040002c3bc00000000"
	r := rel.NewRelation(rel.Schema{
		{Name: "id", Type: rel.KInt},
		{Name: "name", Type: rel.KString},
		{Name: "v", Type: rel.KFloat},
		{Name: "ok", Type: rel.KBool},
		{Name: "lineage", Type: rel.KRef},
	})
	r.Append(rel.Int(-3), rel.String("east"), rel.Float(2.5), rel.Bool(true), rel.NewRef(rel.Ref{Op: 5, Key: "g1", Col: 1}))
	r.Append(rel.Int(300), rel.Null(), rel.Float(-0.125), rel.Bool(false), rel.NewRef(rel.Ref{Op: 7, Key: "", Col: 0}))
	r.Append(rel.Null(), rel.String("ü"), rel.Null(), rel.Null(), rel.Null())
	for _, compress := range []bool{false, true} {
		var buf bytes.Buffer
		if err := WriteColumnar(&buf, r, 2, compress); err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(buf.Bytes()); got != want {
			t.Errorf("compress=%v: bytes\n%s\nwant\n%s", compress, got, want)
		}
	}
}

// TestWriteColumnarBlockCap: a block larger than the codec's cap is an error
// naming the cap, not a silent fallback to uncompressed row blocks.
func TestWriteColumnarBlockCap(t *testing.T) {
	for _, compress := range []bool{false, true} {
		err := WriteColumnar(io.Discard, sampleRel(10), BlockMaxRows+1, compress)
		if err == nil || !strings.Contains(err.Error(), "BlockMaxRows") {
			t.Errorf("compress=%v: err = %v, want one naming BlockMaxRows", compress, err)
		}
	}
}

// TestColumnarMixedBlocks: a relation where only some blocks carry refs
// produces a file mixing tag-1 and tag-2 blocks that reads back whole.
func TestColumnarMixedBlocks(t *testing.T) {
	src := sampleRel(96)
	src.Tuples[40].Vals[2] = rel.NewRef(rel.Ref{Op: 1, Key: "k", Col: 0}) // block 2 of 6
	var buf bytes.Buffer
	if err := WriteColumnar(&buf, src, 16, false); err != nil {
		t.Fatal(err)
	}
	table, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !rel.EqualBag(src, table.Rel, 0) {
		t.Fatal("mixed blocks lost data")
	}
	if table.Blocks() != 6 {
		t.Errorf("blocks = %d, want 6", table.Blocks())
	}
}

// TestReadRejectsCorruptV2: truncations and tag corruptions of a valid v2
// file fail with an error instead of panicking or silently truncating.
func TestReadRejectsCorruptV2(t *testing.T) {
	src := sampleRel(50)
	var buf bytes.Buffer
	if err := WriteColumnar(&buf, src, 16, true); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()
	for cut := 1; cut < len(valid); cut += 7 {
		if _, err := Read(bytes.NewReader(valid[:len(valid)-cut])); err == nil {
			t.Fatalf("truncation by %d bytes read without error", cut)
		}
	}
	for i := 4; i < len(valid); i += 13 {
		mut := append([]byte(nil), valid...)
		mut[i] ^= 0xff
		table, err := Read(bytes.NewReader(mut))
		// Either a clean error or a successful decode of mutated-but-valid
		// bytes is fine; a panic or hang is the failure mode under test.
		_ = table
		_ = err
	}
}

// TestTableFileRejectsCorruption runs the shared corruption table (wiretest)
// over a v2 table file that holds columnar blocks and one row block (its
// KRef cell forces the row fallback). The lies promise a 2^21-column schema,
// a 64 MiB column name, a 60 MiB columnar block and a v1 row with a 64 MiB
// string; each must be rejected without allocating what it promises.
func TestTableFileRejectsCorruption(t *testing.T) {
	const blockRows = 8
	src := sampleRel(20)
	src.Tuples[10].Vals[2] = rel.NewRef(rel.Ref{Op: 2, Key: "k", Col: 1})
	var valid bytes.Buffer
	if err := WriteColumnar(&valid, src, blockRows, false); err != nil {
		t.Fatal(err)
	}
	recode := func(p []byte) ([]byte, error) {
		table, err := Read(bytes.NewReader(p))
		if err != nil {
			return nil, err
		}
		var out bytes.Buffer
		err = WriteColumnar(&out, table.Rel, blockRows, false)
		return out.Bytes(), err
	}
	var lies [][]byte
	for _, h := range []string{
		"494f4c3280808001",
		"494f4c320180808020",
		"494f4c3201016102028080801e",
		"494f4c3101016104010480808020",
	} {
		lie, err := hex.DecodeString(h)
		if err != nil {
			t.Fatal(err)
		}
		lies = append(lies, lie)
	}
	wiretest.Check(t, []wiretest.Message{{Name: "table", Valid: valid.Bytes(), Recode: recode, Lies: lies}})
}
