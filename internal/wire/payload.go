package wire

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Payload append primitives — the encode side of Reader.

// AppendUvarint appends an unsigned varint.
func AppendUvarint(dst []byte, v uint64) []byte { return binary.AppendUvarint(dst, v) }

// AppendVarint appends a zig-zag signed varint.
func AppendVarint(dst []byte, v int64) []byte { return binary.AppendVarint(dst, v) }

// AppendStr appends a uvarint length followed by the bytes of s.
func AppendStr(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// AppendBytes appends a uvarint length followed by b.
func AppendBytes(dst []byte, b []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

// AppendBool appends one byte: 1 for true, 0 for false.
func AppendBool(dst []byte, b bool) []byte {
	if b {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// AppendU64 appends a fixed-width little-endian uint64.
func AppendU64(dst []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(dst, v) }

// AppendF64 appends a float64 as its 8 little-endian Float64bits bytes:
// fixed width keeps float payloads bit-exact and varint-free.
func AppendF64(dst []byte, v float64) []byte { return AppendU64(dst, math.Float64bits(v)) }

// Reader decodes payload primitives, latching the first error: callers chain
// reads and check Err or Done once at the end. After an error every read
// returns the zero value, so a loop bounded by a decoded Count terminates
// without touching the payload again. Nothing is allocated from an unchecked
// length: Count, Str, Bytes and Take validate against the bytes remaining.
type Reader struct {
	b   []byte
	err error
}

// NewReader returns a Reader over payload b. Byte slices handed out by Bytes,
// Take and Rest alias b; Str copies.
func NewReader(b []byte) *Reader { return &Reader{b: b} }

func (r *Reader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("wire: truncated or corrupt %s", what)
	}
}

// Fail latches err (the first error wins) — for decoders of embedded foreign
// encodings that parse Rest themselves.
func (r *Reader) Fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// Err returns the latched error without requiring the payload be consumed.
func (r *Reader) Err() error { return r.err }

// Len returns how many undecoded bytes remain.
func (r *Reader) Len() int { return len(r.b) }

// Rest returns the undecoded bytes (nil after an error). Together with Skip
// and Fail it lets a self-delimiting foreign encoding — a spill row — sit
// inside a payload.
func (r *Reader) Rest() []byte {
	if r.err != nil {
		return nil
	}
	return r.b
}

// Skip consumes n bytes the caller decoded from Rest.
func (r *Reader) Skip(n int) { r.Take(n, "skipped bytes") }

// Uvarint reads an unsigned varint; what labels the error.
func (r *Reader) Uvarint(what string) uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.fail(what)
		return 0
	}
	r.b = r.b[n:]
	return v
}

// Varint reads a zig-zag signed varint.
func (r *Reader) Varint(what string) int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b)
	if n <= 0 {
		r.fail(what)
		return 0
	}
	r.b = r.b[n:]
	return v
}

// Count reads a uvarint element count and bounds it by the bytes remaining —
// every counted element occupies at least one byte, so a lying count cannot
// size an allocation beyond the payload that carries it.
func (r *Reader) Count(what string) int {
	v := r.Uvarint(what)
	if r.err == nil && v > uint64(len(r.b)) {
		r.fail(what)
		return 0
	}
	return int(v)
}

// Take reads exactly n raw bytes, aliasing the payload.
func (r *Reader) Take(n int, what string) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > len(r.b) {
		r.fail(what)
		return nil
	}
	v := r.b[:n:n]
	r.b = r.b[n:]
	return v
}

// Bytes reads a length-prefixed byte slice aliasing the payload.
func (r *Reader) Bytes(what string) []byte { return r.Take(r.Count(what), what) }

// Str reads a length-prefixed string.
func (r *Reader) Str(what string) string { return string(r.Bytes(what)) }

// Byte reads one raw byte.
func (r *Reader) Byte(what string) byte {
	if r.err != nil {
		return 0
	}
	if len(r.b) < 1 {
		r.fail(what)
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v
}

// Bool reads one strict boolean byte (values other than 0/1 are corrupt).
func (r *Reader) Bool(what string) bool {
	v := r.Byte(what)
	if v > 1 {
		r.fail(what)
	}
	return v == 1
}

// U64 reads a fixed-width little-endian uint64.
func (r *Reader) U64(what string) uint64 {
	if r.err != nil {
		return 0
	}
	if len(r.b) < 8 {
		r.fail(what)
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b)
	r.b = r.b[8:]
	return v
}

// F64 reads a float64 written by AppendF64.
func (r *Reader) F64(what string) float64 { return math.Float64frombits(r.U64(what)) }

// Done returns the latched error, or an error if trailing bytes remain.
func (r *Reader) Done(what string) error {
	if r.err != nil {
		return r.err
	}
	if len(r.b) != 0 {
		return fmt.Errorf("wire: %s: %d trailing bytes", what, len(r.b))
	}
	return nil
}
