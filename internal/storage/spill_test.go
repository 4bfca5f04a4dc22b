package storage

import (
	"bytes"
	"errors"
	"io"
	"math"
	"testing"

	"iolap/internal/rel"
)

// contents reads a whole file through its handle.
func contents(t *testing.T, f File) []byte {
	t.Helper()
	data, err := io.ReadAll(io.NewSectionReader(f, 0, math.MaxInt64))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func testRows() [][]rel.Value {
	return [][]rel.Value{
		{rel.Int(42), rel.String("east"), rel.Float(3.25)},
		{rel.Null(), rel.Bool(true), rel.Bool(false)},
		{rel.NewRef(rel.Ref{Op: 7, Key: "grp|a", Col: 2}), rel.String("")},
		{rel.String("héllo ✓ world"), rel.Int(-1 << 60)},
		{rel.Float(math.NaN()), rel.Float(math.Inf(-1)), rel.Float(0)},
		{}, // zero-column row
	}
}

func sameValues(t *testing.T, got, want []rel.Value) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d values, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Kind() != want[i].Kind() {
			t.Fatalf("value %d kind %v, want %v", i, got[i].Kind(), want[i].Kind())
		}
		switch want[i].Kind() {
		case rel.KFloat:
			// Bit-level: NaN must round-trip.
			if math.Float64bits(got[i].Float()) != math.Float64bits(want[i].Float()) {
				t.Fatalf("value %d = %v, want %v", i, got[i], want[i])
			}
		case rel.KRef:
			if got[i].Ref() != want[i].Ref() {
				t.Fatalf("value %d = %v, want %v", i, got[i], want[i])
			}
		default:
			if !got[i].Equal(want[i]) {
				t.Fatalf("value %d = %v, want %v", i, got[i], want[i])
			}
		}
	}
}

func TestSpillRowRoundTrip(t *testing.T) {
	weights := [][]float64{nil, {}, {1, 0, 2.5}, {math.Inf(1)}}
	var buf []byte
	type exp struct {
		vals []rel.Value
		mult float64
		w    []float64
	}
	var want []exp
	for i, vals := range testRows() {
		w := weights[i%len(weights)]
		mult := float64(i) * 1.5
		var err error
		buf, err = AppendSpillRow(buf, vals, mult, w)
		if err != nil {
			t.Fatalf("encode row %d: %v", i, err)
		}
		want = append(want, exp{vals, mult, w})
	}
	rest := buf
	for i, e := range want {
		size, err := SpillRowSize(rest)
		if err != nil {
			t.Fatalf("size row %d: %v", i, err)
		}
		vals, mult, w, n, err := DecodeSpillRow(rest)
		if err != nil {
			t.Fatalf("decode row %d: %v", i, err)
		}
		if n != size {
			t.Fatalf("row %d: decode consumed %d bytes, SpillRowSize said %d", i, n, size)
		}
		sameValues(t, vals, e.vals)
		if mult != e.mult {
			t.Fatalf("row %d mult = %v, want %v", i, mult, e.mult)
		}
		if len(w) != len(e.w) {
			t.Fatalf("row %d: %d weights, want %d", i, len(w), len(e.w))
		}
		for j := range e.w {
			if math.Float64bits(w[j]) != math.Float64bits(e.w[j]) {
				t.Fatalf("row %d weight %d = %v, want %v", i, j, w[j], e.w[j])
			}
		}
		rest = rest[n:]
	}
	if len(rest) != 0 {
		t.Fatalf("%d trailing bytes after decoding all rows", len(rest))
	}
}

func TestSpillRowRejectsCorruption(t *testing.T) {
	buf, err := AppendSpillRow(nil, []rel.Value{rel.Int(7), rel.String("abc")}, 2, []float64{1})
	if err != nil {
		t.Fatal(err)
	}

	// Truncated at every possible boundary: the length prefix must make the
	// torn tail detectable.
	for cut := 0; cut < len(buf); cut++ {
		if _, _, _, _, err := DecodeSpillRow(buf[:cut]); err == nil {
			t.Fatalf("decode of %d/%d-byte prefix must fail", cut, len(buf))
		}
	}

	// A lying prefix promising more than remains.
	big := append([]byte{0xff, 0xff, 0x7f}, buf...)
	if _, err := SpillRowSize(big); err == nil {
		t.Fatal("oversized length prefix must be rejected")
	}

	// A bad value kind inside an otherwise well-formed envelope.
	bad := append([]byte(nil), buf...)
	// payload starts after the 1-byte prefix; byte 1 is the value count,
	// byte 2 the first kind tag.
	bad[2] = 0x77
	if _, _, _, _, err := DecodeSpillRow(bad); err == nil {
		t.Fatal("unknown value kind must be rejected")
	}

	// Empty input.
	if _, err := SpillRowSize(nil); err == nil {
		t.Fatal("empty input must be rejected")
	}
}

func TestMemFSCrashRevertsToSynced(t *testing.T) {
	fs := NewMemFS()
	f, err := fs.Create("x")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("durable"), 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("lost bytes"), 7); err != nil {
		t.Fatal(err)
	}
	fs.Crash()
	if got := contents(t, f); !bytes.Equal(got, []byte("durable")) {
		t.Fatalf("after crash: %q, want %q", got, "durable")
	}
}

// TestTornTailDetectable is the crash-consistency story end to end: a spill
// run written but not synced is lost by a crash, and the length-prefix scan
// identifies exactly the synced prefix as valid.
func TestTornTailDetectable(t *testing.T) {
	mem := NewMemFS()
	fs := NewFaultFS(mem)
	f, err := fs.Create("shard")
	if err != nil {
		t.Fatal(err)
	}
	row1, _ := AppendSpillRow(nil, []rel.Value{rel.String("committed")}, 1, nil)
	row2, _ := AppendSpillRow(nil, []rel.Value{rel.String("in flight at crash")}, 1, nil)
	if _, err := f.WriteAt(row1, 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	fs.DropSyncs(true) // the lying fsync
	if _, err := f.WriteAt(row2, int64(len(row1))); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err) // "succeeds" but does nothing
	}
	mem.Crash()
	data := contents(t, f)
	if len(data) != len(row1) {
		t.Fatalf("crash kept %d bytes, want the %d synced ones", len(data), len(row1))
	}
	// Scan: every complete row decodes; the scan stops cleanly at the end.
	n := 0
	for len(data) > 0 {
		size, err := SpillRowSize(data)
		if err != nil {
			t.Fatalf("synced prefix must scan cleanly: %v", err)
		}
		data = data[size:]
		n++
	}
	if n != 1 {
		t.Fatalf("scan found %d rows, want 1", n)
	}
}

func TestFaultFSSchedules(t *testing.T) {
	fs := NewFaultFS(NewMemFS())
	f, err := fs.Create("f")
	if err != nil {
		t.Fatal(err)
	}

	fs.FailWriteAt(2, false)
	if _, err := f.WriteAt([]byte("aa"), 0); err != nil {
		t.Fatalf("write 1 must pass: %v", err)
	}
	if _, err := f.WriteAt([]byte("bb"), 2); !errors.Is(err, ErrInjected) {
		t.Fatalf("write 2 must fail injected, got %v", err)
	}
	if _, err := f.WriteAt([]byte("cc"), 2); err != nil {
		t.Fatalf("fault must heal after firing: %v", err)
	}

	fs.FailWriteAt(4, true)
	n, err := f.WriteAt([]byte("dddd"), 4)
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("short write must report injected, got %v", err)
	}
	if n != 2 {
		t.Fatalf("short write persisted %d bytes, want 2", n)
	}

	fs.FailSyncAt(1)
	if err := f.Sync(); !errors.Is(err, ErrInjected) {
		t.Fatalf("sync 1 must fail injected, got %v", err)
	}
	if err := f.Sync(); err != nil {
		t.Fatalf("sync fault must heal: %v", err)
	}

	writes, syncs := fs.Ops()
	if writes != 4 || syncs != 2 {
		t.Fatalf("ops = (%d, %d), want (4, 2)", writes, syncs)
	}
}

// TestAppendSpillRowSingleCopy pins the reserved-gap fix: with capacity
// already available, appending a row allocates nothing (the old encoding
// reserved MaxVarintLen64 and memmoved the payload over the gap; the size
// pre-pass writes the prefix once). The encoded bytes stay identical to the
// two-copy encoding, which TestSpillRowRoundTrip's decoder checks and the
// size pre-pass guarantees by construction (minimal uvarint either way).
func TestAppendSpillRowSingleCopy(t *testing.T) {
	vals := []rel.Value{rel.Int(42), rel.String("east"), rel.Float(3.25),
		rel.NewRef(rel.Ref{Op: 7, Key: "grp|a", Col: 2})}
	w := []float64{1, 0.5, 2}
	buf := make([]byte, 0, 1<<12)
	allocs := testing.AllocsPerRun(100, func() {
		var err error
		buf, err = AppendSpillRow(buf[:0], vals, 2.5, w)
		if err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("AppendSpillRow allocates %.1f times per row with spare capacity, want 0", allocs)
	}
	// The size pre-pass must agree exactly with the bytes produced.
	size, err := spillRowPayloadSize(vals, w)
	if err != nil {
		t.Fatal(err)
	}
	if want := uvarintLen(uint64(size)) + size; want != len(buf) {
		t.Errorf("payload size pre-pass computed %d total bytes, encoder wrote %d", want, len(buf))
	}
}

func BenchmarkAppendSpillRow(b *testing.B) {
	vals := []rel.Value{rel.Int(42), rel.String("some-key-value"), rel.Float(3.25), rel.Bool(true)}
	w := []float64{1, 0.5, 2, 0, 1}
	buf := make([]byte, 0, 1<<12)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf, _ = AppendSpillRow(buf[:0], vals, 1, w)
	}
}
