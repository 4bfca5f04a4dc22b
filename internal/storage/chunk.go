// Flate chunk compression shared by the spill and block codecs. A chunk is a
// byte blob that is either stored raw or wrapped in a self-describing
// compressed frame:
//
//	0x00 magic, uvarint raw length, deflate stream
//
// The 0x00 magic byte is unambiguous against a raw spill-row stream: a spill
// row always begins with its payload-length uvarint, and the payload is never
// empty (it holds at least a value count, the multiplicity and a weight
// count), so a raw run can never start with 0x00. Callers framing other data
// kinds must carry their own compressed/raw flag (the block codec does).
//
// Compression is deterministic for a fixed input and level: spilling the same
// shard contents produces the same file bytes at any worker count.

package storage

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"io"
	"sync"
)

// chunkMagic marks a flate-compressed chunk. See the package comment above
// for why it cannot collide with a raw spill-row stream.
const chunkMagic = 0x00

// maxChunkRaw bounds the decompressed size a chunk header may promise (1 GiB)
// so a corrupt header cannot drive a multi-gigabyte allocation.
const maxChunkRaw = 1 << 30

// flateLevel trades CPU for ratio. The codec's inputs (columnar banks, spill
// runs) are cold-path bulk bytes, so a mid-level setting beats BestSpeed's
// ratio without the BestCompression cliff.
const flateLevel = flate.DefaultCompression

var flateWriters = sync.Pool{
	New: func() interface{} {
		w, _ := flate.NewWriter(io.Discard, flateLevel)
		return w
	},
}

var flateReaders = sync.Pool{
	New: func() interface{} { return flate.NewReader(bytes.NewReader(nil)) },
}

// deflate appends the flate compression of src to dst and returns the
// extended slice.
func deflate(dst, src []byte) []byte {
	buf := bytes.NewBuffer(dst)
	fw := flateWriters.Get().(*flate.Writer)
	fw.Reset(buf)
	fw.Write(src)
	fw.Close() // bytes.Buffer writes cannot fail
	flateWriters.Put(fw)
	return buf.Bytes()
}

// inflate decompresses exactly rawLen bytes of flate stream from src,
// erroring on truncation, trailing garbage, or a stream that decodes to a
// different length.
func inflate(src []byte, rawLen int) ([]byte, error) {
	// Deflate expands at most 1032:1 (one bit-pair can emit 258 bytes), so a
	// header promising more than the stream could hold is a lie — rejected
	// before the output buffer is sized from it.
	if rawLen < 0 || rawLen > maxChunkRaw || rawLen > 1032*len(src) {
		return nil, fmt.Errorf("storage: chunk raw length %d out of range", rawLen)
	}
	fr := flateReaders.Get().(io.ReadCloser)
	defer flateReaders.Put(fr)
	if err := fr.(flate.Resetter).Reset(bytes.NewReader(src), nil); err != nil {
		return nil, err
	}
	out := make([]byte, rawLen)
	if _, err := io.ReadFull(fr, out); err != nil {
		return nil, fmt.Errorf("storage: chunk truncated: %w", err)
	}
	var tail [1]byte
	if n, _ := fr.Read(tail[:]); n != 0 {
		return nil, fmt.Errorf("storage: chunk longer than its header promises")
	}
	return out, nil
}

// CompressChunk returns b wrapped as a compressed chunk when it is at least
// min bytes long and flate actually shrinks it, and b unchanged otherwise.
// b must not be a chunk already (i.e. must not begin with 0x00); spill-row
// runs satisfy this by construction.
func CompressChunk(b []byte, min int) []byte {
	if len(b) < min {
		return b
	}
	hdr := make([]byte, 1, 1+binary.MaxVarintLen64)
	hdr[0] = chunkMagic
	hdr = binary.AppendUvarint(hdr, uint64(len(b)))
	out := deflate(hdr, b)
	if len(out) >= len(b) {
		return b
	}
	return out
}

// ChunkCompressed reports whether b begins with a compressed-chunk frame.
func ChunkCompressed(b []byte) bool {
	return len(b) > 0 && b[0] == chunkMagic
}

// ExpandChunk returns the raw bytes of a chunk: b itself when it is not
// compressed, the decompressed contents otherwise.
func ExpandChunk(b []byte) ([]byte, error) {
	if !ChunkCompressed(b) {
		return b, nil
	}
	rawLen, n := binary.Uvarint(b[1:])
	if n <= 0 || rawLen > maxChunkRaw {
		return nil, fmt.Errorf("storage: bad chunk raw-length header")
	}
	return inflate(b[1+n:], int(rawLen))
}
