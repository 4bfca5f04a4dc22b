// Spill row codec: the length-prefixed encoding used by delta.HashStore for
// rows evicted to disk. Unlike the block-table format above, spill rows must
// round-trip mid-pipeline state, so the codec also carries the tuple
// multiplicity, the per-trial bootstrap weights, and KRef lineage values
// (cached join rows reference uncertain aggregate outputs; the block format
// deliberately rejects those).
//
// Row layout (little-endian):
//
//	uvarint payload length
//	payload:
//	    uvarint value count, then values (1 byte kind tag + payload;
//	        KRef = varint op, varint col, uvarint key length + key bytes;
//	        other kinds as in the block format)
//	    8 bytes multiplicity float64 bits
//	    uvarint weight count, then 8-byte float64 bits each
//
// The outer length prefix makes every row skippable without decoding
// (SpillRowSize) and makes a torn tail detectable: a prefix that runs past
// the written bytes is exactly the "crashed mid-write" signature.

package storage

import (
	"encoding/binary"
	"fmt"
	"math"

	"iolap/internal/rel"
	"iolap/internal/wire"
)

// AppendSpillRow appends the encoding of one spill row to dst and returns
// the extended slice. The payload size is computed arithmetically up front,
// so the minimal length prefix is written once and the payload bytes are
// appended directly behind it — no reserved-gap memmove (the bytes produced
// are identical to the old two-copy encoding). It errors on value kinds the
// codec does not know, before touching dst.
func AppendSpillRow(dst []byte, vals []rel.Value, mult float64, w []float64) ([]byte, error) {
	payload, err := spillRowPayloadSize(vals, w)
	if err != nil {
		return dst, err
	}
	dst = binary.AppendUvarint(dst, uint64(payload))

	dst = binary.AppendUvarint(dst, uint64(len(vals)))
	for _, v := range vals {
		dst, _ = appendValue(dst, v) // kinds pre-validated by the size pass
	}
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(mult))
	dst = binary.AppendUvarint(dst, uint64(len(w)))
	for _, f := range w {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(f))
	}
	return dst, nil
}

// uvarintLen is the encoded size of v as a uvarint.
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// varintLen is the encoded size of v as a zig-zag varint.
func varintLen(v int64) int {
	return uvarintLen(uint64(v)<<1 ^ uint64(v>>63))
}

// spillRowPayloadSize computes the exact payload size AppendSpillRow will
// produce, validating value kinds along the way.
func spillRowPayloadSize(vals []rel.Value, w []float64) (int, error) {
	n := uvarintLen(uint64(len(vals)))
	for _, v := range vals {
		n++ // kind tag
		switch v.Kind() {
		case rel.KNull:
		case rel.KBool:
			n++
		case rel.KInt:
			n += varintLen(v.Int())
		case rel.KFloat:
			n += 8
		case rel.KString:
			n += uvarintLen(uint64(len(v.Str()))) + len(v.Str())
		case rel.KRef:
			r := v.Ref()
			n += varintLen(int64(r.Op)) + varintLen(int64(r.Col)) +
				uvarintLen(uint64(len(r.Key))) + len(r.Key)
		default:
			return 0, fmt.Errorf("storage: cannot spill %v values", v.Kind())
		}
	}
	n += 8 // multiplicity
	n += uvarintLen(uint64(len(w))) + 8*len(w)
	return n, nil
}

// appendValue appends one tagged value: its kind byte, then the payload the
// package comment lists. It is the value codec of spill rows, row blocks of
// table files and colMixed columns; decodeValue is its inverse.
func appendValue(dst []byte, v rel.Value) ([]byte, error) {
	dst = append(dst, byte(v.Kind()))
	switch v.Kind() {
	case rel.KNull:
	case rel.KBool:
		if v.Bool() {
			dst = append(dst, 1)
		} else {
			dst = append(dst, 0)
		}
	case rel.KInt:
		dst = binary.AppendVarint(dst, v.Int())
	case rel.KFloat:
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v.Float()))
	case rel.KString:
		s := v.Str()
		dst = binary.AppendUvarint(dst, uint64(len(s)))
		dst = append(dst, s...)
	case rel.KRef:
		r := v.Ref()
		dst = binary.AppendVarint(dst, int64(r.Op))
		dst = binary.AppendVarint(dst, int64(r.Col))
		dst = binary.AppendUvarint(dst, uint64(len(r.Key)))
		dst = append(dst, r.Key...)
	default:
		return dst, fmt.Errorf("storage: cannot encode %v values", v.Kind())
	}
	return dst, nil
}

// SpillRowSize returns the total encoded size (prefix + payload) of the row
// starting at b[0], reading only the length prefix. It errors if the prefix
// is malformed or promises more bytes than b holds — the torn-tail check.
func SpillRowSize(b []byte) (int, error) {
	payload, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, fmt.Errorf("storage: bad spill row length prefix")
	}
	if payload > uint64(len(b)-n) {
		return 0, fmt.Errorf("storage: spill row truncated: prefix promises %d bytes, %d remain", payload, len(b)-n)
	}
	return n + int(payload), nil
}

// DecodeSpillRow decodes one spill row from the start of b, returning the
// values, multiplicity, weights, and the number of bytes consumed. The
// decoder is strict: the payload must be exactly consumed, and any malformed
// field is an error, never a panic — corrupt scratch data must surface as a
// detectable failure.
func DecodeSpillRow(b []byte) (vals []rel.Value, mult float64, w []float64, size int, err error) {
	size, err = SpillRowSize(b)
	if err != nil {
		return nil, 0, nil, 0, err
	}
	pfx, _ := binary.Uvarint(b)
	p := b[size-int(pfx) : size]

	nVals, n := binary.Uvarint(p)
	if n <= 0 || nVals > uint64(len(p)) {
		return nil, 0, nil, 0, fmt.Errorf("storage: bad spill value count")
	}
	p = p[n:]
	vals = make([]rel.Value, nVals)
	for i := range vals {
		vals[i], p, err = decodeValue(p)
		if err != nil {
			return nil, 0, nil, 0, err
		}
	}
	if len(p) < 8 {
		return nil, 0, nil, 0, fmt.Errorf("storage: spill row missing multiplicity")
	}
	mult = math.Float64frombits(binary.LittleEndian.Uint64(p))
	p = p[8:]
	nW, n := binary.Uvarint(p)
	if n <= 0 || nW > uint64(len(p)-n)/8 { // division: nW*8 can wrap
		return nil, 0, nil, 0, fmt.Errorf("storage: bad spill weight count")
	}
	p = p[n:]
	if nW > 0 {
		w = make([]float64, nW)
		for i := range w {
			w[i] = math.Float64frombits(binary.LittleEndian.Uint64(p))
			p = p[8:]
		}
	}
	if len(p) != 0 {
		return nil, 0, nil, 0, fmt.Errorf("storage: %d trailing bytes in spill row", len(p))
	}
	return vals, mult, w, size, nil
}

// ReadSpillRow decodes the spill row at the front of r's undecoded payload
// and advances r past it; a malformed row latches its error on r.
func ReadSpillRow(r *wire.Reader) (vals []rel.Value, mult float64, w []float64) {
	vals, mult, w, size, err := DecodeSpillRow(r.Rest())
	if err != nil {
		r.Fail(err)
		return nil, 0, nil
	}
	r.Skip(size)
	return vals, mult, w
}

// readValue decodes the tagged value at r's cursor and advances r past it; a
// malformed value latches its error on r.
func readValue(r *wire.Reader) rel.Value {
	v, rest, err := decodeValue(r.Rest())
	if err != nil {
		r.Fail(err)
		return rel.Value{}
	}
	r.Skip(r.Len() - len(rest))
	return v
}

// decodeValue decodes the tagged value at the front of p and returns the
// bytes after it. Lengths are checked against len(p) before they slice or
// copy anything.
func decodeValue(p []byte) (rel.Value, []byte, error) {
	if len(p) == 0 {
		return rel.Value{}, nil, fmt.Errorf("storage: missing value tag")
	}
	kind := rel.Kind(p[0])
	p = p[1:]
	switch kind {
	case rel.KNull:
		return rel.Null(), p, nil
	case rel.KBool:
		if len(p) == 0 {
			return rel.Value{}, nil, fmt.Errorf("storage: bool value missing payload")
		}
		return rel.Bool(p[0] != 0), p[1:], nil
	case rel.KInt:
		i, n := binary.Varint(p)
		if n <= 0 {
			return rel.Value{}, nil, fmt.Errorf("storage: bad int value")
		}
		return rel.Int(i), p[n:], nil
	case rel.KFloat:
		if len(p) < 8 {
			return rel.Value{}, nil, fmt.Errorf("storage: float value missing payload")
		}
		return rel.Float(math.Float64frombits(binary.LittleEndian.Uint64(p))), p[8:], nil
	case rel.KString:
		sLen, n := binary.Uvarint(p)
		if n <= 0 || sLen > uint64(len(p)-n) {
			return rel.Value{}, nil, fmt.Errorf("storage: bad string value length")
		}
		return rel.String(string(p[n : n+int(sLen)])), p[n+int(sLen):], nil
	case rel.KRef:
		op, n := binary.Varint(p)
		if n <= 0 {
			return rel.Value{}, nil, fmt.Errorf("storage: bad ref value op")
		}
		p = p[n:]
		col, n := binary.Varint(p)
		if n <= 0 {
			return rel.Value{}, nil, fmt.Errorf("storage: bad ref value col")
		}
		p = p[n:]
		kLen, n := binary.Uvarint(p)
		if n <= 0 || kLen > uint64(len(p)-n) {
			return rel.Value{}, nil, fmt.Errorf("storage: bad ref value key length")
		}
		key := string(p[n : n+int(kLen)])
		return rel.NewRef(rel.Ref{Op: int(op), Key: key, Col: int(col)}), p[n+int(kLen):], nil
	default:
		return rel.Value{}, nil, fmt.Errorf("storage: bad value kind %d", kind)
	}
}
