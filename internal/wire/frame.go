// Package wire is the one byte-level layer under everything that crosses a
// process or file boundary (DESIGN.md §15): the length-prefixed frame the
// serve protocol speaks (internal/serve) and the payload primitives —
// Append* encoders with a matching latching, bounds-checked Reader — that
// every message and block codec is written in. It imports only the standard
// library, so any package may depend on it.
package wire

import (
	"encoding/binary"
	"fmt"
	"io"
)

// maxFrame bounds a single frame (1 GiB), so a corrupt length prefix cannot
// drive a multi-gigabyte allocation.
const maxFrame = 1 << 30

// frameOverhead is the wire cost of a frame beyond its payload: the 4-byte
// length prefix plus the type byte.
const frameOverhead = 5

// WriteFrame sends one frame — 4-byte big-endian length, one type byte, then
// the payload (the length counts the type byte plus payload) — as a single
// Write, so counting wrappers see whole frames.
func WriteFrame(w io.Writer, typ byte, payload []byte) error {
	if len(payload)+1 > maxFrame {
		return fmt.Errorf("wire: frame type %d too large: %d bytes", typ, len(payload))
	}
	buf := make([]byte, frameOverhead+len(payload))
	binary.BigEndian.PutUint32(buf, uint32(len(payload)+1))
	buf[4] = typ
	copy(buf[frameOverhead:], payload)
	_, err := w.Write(buf)
	return err
}

// ReadFrame reads one frame, returning its type and a freshly allocated
// payload the caller owns.
func ReadFrame(r io.Reader) (byte, []byte, error) {
	var scratch []byte
	return ReadFrameReuse(r, &scratch)
}

// ReadFrameReuse reads one frame into *buf (grown as needed and kept for the
// next call), returning its type and payload. The payload aliases *buf and
// is valid only until the next ReadFrameReuse with the same buffer, so a
// decoder that retains payload bytes past the call must copy them. Reusing
// the buffer removes the per-frame allocation from a protocol's hot loop.
func ReadFrameReuse(r io.Reader, buf *[]byte) (byte, []byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n == 0 || n > maxFrame {
		return 0, nil, fmt.Errorf("wire: bad frame length %d", n)
	}
	if uint32(cap(*buf)) < n {
		*buf = make([]byte, n)
	}
	b := (*buf)[:n]
	*buf = b
	if _, err := io.ReadFull(r, b); err != nil {
		return 0, nil, err
	}
	return b[0], b[1:], nil
}
