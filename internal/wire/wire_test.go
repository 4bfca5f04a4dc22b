package wire

import (
	"bytes"
	"io"
	"math"
	"testing"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{nil, {}, {1}, bytes.Repeat([]byte{0xab}, 1000)}
	for i, p := range payloads {
		if err := WriteFrame(&buf, byte(i+1), p); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	for i, p := range payloads {
		typ, got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if typ != byte(i+1) || !bytes.Equal(got, p) {
			t.Fatalf("frame %d: type %d payload %d bytes, want type %d payload %d bytes",
				i, typ, len(got), i+1, len(p))
		}
	}
}

func TestFrameRejectsBadLength(t *testing.T) {
	// A zero length and an oversized length are both protocol corruption.
	for _, hdr := range [][]byte{{0, 0, 0, 0}, {0xff, 0xff, 0xff, 0xff}} {
		if _, _, err := ReadFrame(bytes.NewReader(hdr)); err == nil {
			t.Fatalf("header %x: expected error", hdr)
		}
	}
}

// TestReaderRoundTrip: every Append* primitive reads back through its Reader
// method, and Done accepts exactly the consumed payload.
func TestReaderRoundTrip(t *testing.T) {
	p := AppendUvarint(nil, 1<<40)
	p = AppendVarint(p, -12345)
	p = AppendStr(p, "héllo")
	p = AppendBytes(p, []byte{9, 8})
	p = AppendBool(p, true)
	p = append(p, 0x7f)
	p = AppendU64(p, 0xdeadbeefcafe)
	p = AppendF64(p, math.Copysign(0, -1))
	r := NewReader(p)
	if v := r.Uvarint("u"); v != 1<<40 {
		t.Errorf("uvarint %d", v)
	}
	if v := r.Varint("v"); v != -12345 {
		t.Errorf("varint %d", v)
	}
	if v := r.Str("s"); v != "héllo" {
		t.Errorf("str %q", v)
	}
	if v := r.Bytes("b"); !bytes.Equal(v, []byte{9, 8}) {
		t.Errorf("bytes %v", v)
	}
	if !r.Bool("bool") || r.Byte("byte") != 0x7f || r.U64("u64") != 0xdeadbeefcafe {
		t.Error("bool/byte/u64 mismatch")
	}
	if v := r.F64("f64"); math.Float64bits(v) != 1<<63 {
		t.Errorf("f64 bits %#x", math.Float64bits(v))
	}
	if err := r.Done("payload"); err != nil {
		t.Fatal(err)
	}
	if err := NewReader(append(p, 0)).Done("payload"); err == nil {
		t.Error("Done accepted an unread byte")
	}
}

// TestReaderLatchesAndBounds: the first failure sticks, later reads return
// zero values, and no length is trusted past the bytes that remain.
func TestReaderLatchesAndBounds(t *testing.T) {
	lying := AppendUvarint(nil, 1<<40) // a count with nothing behind it
	for name, read := range map[string]func(*Reader){
		"Count": func(r *Reader) { r.Count("n") },
		"Str":   func(r *Reader) { r.Str("s") },
		"Bytes": func(r *Reader) { r.Bytes("b") },
		"Take":  func(r *Reader) { r.Take(-1, "t") },
		"Skip":  func(r *Reader) { r.Skip(len(lying) + 1) },
		"Bool":  func(r *Reader) { r.Bool("bool") }, // 0x80 is not 0/1
		"U64":   func(r *Reader) { r.U64("u64") },
	} {
		r := NewReader(lying)
		read(r)
		if r.Err() == nil {
			t.Errorf("%s accepted a lying or short payload", name)
		}
		first := r.Err()
		if r.Uvarint("x") != 0 || r.Byte("y") != 0 || r.Rest() != nil {
			t.Errorf("%s: reads after the error were not inert", name)
		}
		r.Fail(io.EOF)
		if r.Done("payload") != first {
			t.Errorf("%s: a later failure replaced the first error", name)
		}
	}
	if r := NewReader(nil); r.Uvarint("u") != 0 || r.Err() == nil {
		t.Error("empty payload yielded a uvarint")
	}
}
