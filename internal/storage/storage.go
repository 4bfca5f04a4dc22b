// Package storage implements a simple block-based table file format — the
// stand-in for the HDFS block storage the paper's deployment reads from.
// The unit of layout is a fixed-size row block, which is also the unit of
// the paper's default randomness: "iOLAP supports block-wise randomness by
// randomly partitioning data blocks into batches" (Section 2). The engine's
// BlockRows option reproduces exactly that: blocks, not rows, are shuffled
// into mini-batches.
//
// The v1 format ("IOL1", little-endian) is read-only — its writer is gone,
// files written by older builds stay loadable (testdata/v1_sample.iol pins
// that):
//
//	magic   "IOL1"
//	uvarint column count
//	per column: uvarint name length, name bytes, 1 byte kind
//	blocks: uvarint row count (0 terminates), then rows
//	row: per column: 1 byte kind tag, then payload
//	     (varint for INT/BOOL, 8-byte bits for FLOAT, uvarint len+bytes
//	     for STRING, varint op + varint col + uvarint len+bytes for REF;
//	     NULL has no payload)
//
// The v2 format ("IOL2", what WriteColumnar — the only writer — produces)
// keeps the header and replaces the block stream with tagged blocks so each
// block can use the §11 columnar codec (block.go) while oddball blocks fall
// back to rows:
//
//	blocks: 1 byte tag — 0 terminates,
//	        1 = row block (uvarint row count, then rows as in v1),
//	        2 = columnar block (uvarint byte length, then an EncodeBlock
//	            body; the row count lives inside the body)
//
// Read dispatches on the magic, so both generations stay readable forever.
package storage

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"iolap/internal/rel"
)

var magic = [4]byte{'I', 'O', 'L', '1'}
var magic2 = [4]byte{'I', 'O', 'L', '2'}

// v2 block tags.
const (
	tblockEnd      = 0 // no more blocks
	tblockRows     = 1 // row-format block (v1 encoding)
	tblockColumnar = 2 // §11 columnar block (EncodeBlock body)
)

// maxBlockBytes bounds a columnar block body so a corrupt length prefix
// cannot force a giant allocation before decoding fails.
const maxBlockBytes = 64 << 20

// maxStringBytes bounds one string cell for the same reason.
const maxStringBytes = 1 << 28

// DefaultBlockRows is the row count per block when unspecified.
const DefaultBlockRows = 1024

// WriteColumnar serialises a relation in the v2 tagged-block format: each
// block is stored with the §11 columnar codec (optionally flate-compressed)
// unless it contains cells the codec rejects (lineage KRefs), in which case
// that block alone falls back to the v1 row encoding.
func WriteColumnar(w io.Writer, r *rel.Relation, blockRows int, compress bool) error {
	if blockRows <= 0 {
		blockRows = DefaultBlockRows
	}
	bw := bufio.NewWriter(w)
	if err := writeHeader(bw, r.Schema); err != nil {
		return err
	}
	var scratch []byte
	for lo := 0; lo < r.Len(); lo += blockRows {
		hi := lo + blockRows
		if hi > r.Len() {
			hi = r.Len()
		}
		tuples := r.Tuples[lo:hi]
		if enc, err := EncodeBlock(scratch[:0], r.Schema, tuples, compress); err == nil {
			scratch = enc
			bw.WriteByte(tblockColumnar)
			writeUvarint(bw, uint64(len(enc)))
			bw.Write(enc)
			continue
		}
		bw.WriteByte(tblockRows)
		writeUvarint(bw, uint64(len(tuples)))
		for _, tp := range tuples {
			if err := writeRow(bw, tp.Vals); err != nil {
				return err
			}
		}
	}
	bw.WriteByte(tblockEnd)
	return bw.Flush()
}

func writeHeader(bw *bufio.Writer, schema rel.Schema) error {
	if _, err := bw.Write(magic2[:]); err != nil {
		return err
	}
	writeUvarint(bw, uint64(len(schema)))
	for _, c := range schema {
		writeUvarint(bw, uint64(len(c.Name)))
		bw.WriteString(c.Name)
		bw.WriteByte(byte(c.Type))
	}
	return nil
}

func writeUvarint(w *bufio.Writer, v uint64) {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	w.Write(buf[:n])
}

func writeRow(w *bufio.Writer, vals []rel.Value) error {
	for _, v := range vals {
		w.WriteByte(byte(v.Kind()))
		switch v.Kind() {
		case rel.KNull:
		case rel.KBool:
			if v.Bool() {
				w.WriteByte(1)
			} else {
				w.WriteByte(0)
			}
		case rel.KInt:
			var buf [binary.MaxVarintLen64]byte
			n := binary.PutVarint(buf[:], v.Int())
			w.Write(buf[:n])
		case rel.KFloat:
			var buf [8]byte
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v.Float()))
			w.Write(buf[:])
		case rel.KString:
			s := v.Str()
			writeUvarint(w, uint64(len(s)))
			w.WriteString(s)
		case rel.KRef:
			// Lineage references, same payload as the spill row codec:
			// varint op, varint col, uvarint key length + key bytes.
			r := v.Ref()
			var buf [binary.MaxVarintLen64]byte
			n := binary.PutVarint(buf[:], int64(r.Op))
			w.Write(buf[:n])
			n = binary.PutVarint(buf[:], int64(r.Col))
			w.Write(buf[:n])
			writeUvarint(w, uint64(len(r.Key)))
			w.WriteString(r.Key)
		default:
			return fmt.Errorf("storage: cannot serialise %v values", v.Kind())
		}
	}
	return nil
}

// Table is a materialised block table: the relation plus its block
// boundaries (offsets into Rel.Tuples).
type Table struct {
	Rel *rel.Relation
	// BlockStarts[i] is the first tuple index of block i; blocks end at
	// the next start (or the relation end).
	BlockStarts []int
	// V2 records whether the file used the "IOL2" tagged-block format;
	// ColumnarBlocks and CompressedBlocks count its blocks stored with the
	// columnar codec and, of those, the flate-compressed ones. Catalog
	// surfaces (the REPL's \tables) report them so operators can tell which
	// on-disk tables would benefit from a -convert pass.
	V2               bool
	ColumnarBlocks   int
	CompressedBlocks int
}

// Blocks returns the number of blocks.
func (t *Table) Blocks() int { return len(t.BlockStarts) }

// Format describes the file layout the table was read from, for catalog
// listings: "row v1", or "columnar v2 (c/n blocks, m flate)".
func (t *Table) Format() string {
	if !t.V2 {
		return "row v1"
	}
	s := fmt.Sprintf("columnar v2 (%d/%d blocks", t.ColumnarBlocks, t.Blocks())
	if t.CompressedBlocks > 0 {
		s += fmt.Sprintf(", %d flate", t.CompressedBlocks)
	}
	return s + ")"
}

// Block returns the tuples of block i.
func (t *Table) Block(i int) []rel.Tuple {
	lo := t.BlockStarts[i]
	hi := t.Rel.Len()
	if i+1 < len(t.BlockStarts) {
		hi = t.BlockStarts[i+1]
	}
	return t.Rel.Tuples[lo:hi]
}

// Read deserialises a block table of either generation, dispatching on the
// magic: "IOL1" row blocks or "IOL2" tagged columnar/row blocks.
func Read(r io.Reader) (*Table, error) {
	br := bufio.NewReader(r)
	var m [4]byte
	if _, err := io.ReadFull(br, m[:]); err != nil {
		return nil, fmt.Errorf("storage: %w", err)
	}
	if m != magic && m != magic2 {
		return nil, fmt.Errorf("storage: bad magic %q", m)
	}
	nCols, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	if nCols > maxBlockBytes {
		return nil, fmt.Errorf("storage: implausible column count %d", nCols)
	}
	schema := make(rel.Schema, nCols)
	for i := range schema {
		nameLen, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, err
		}
		if nameLen > maxStringBytes {
			return nil, fmt.Errorf("storage: implausible column name length %d", nameLen)
		}
		name := make([]byte, nameLen)
		if _, err := io.ReadFull(br, name); err != nil {
			return nil, err
		}
		kind, err := br.ReadByte()
		if err != nil {
			return nil, err
		}
		schema[i] = rel.Column{Name: string(name), Type: rel.Kind(kind)}
	}
	t := &Table{Rel: rel.NewRelation(schema)}
	if m == magic2 {
		t.V2 = true
		return t, readBlocksV2(br, t, schema)
	}
	for {
		count, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, err
		}
		if count == 0 {
			break
		}
		t.BlockStarts = append(t.BlockStarts, t.Rel.Len())
		for i := uint64(0); i < count; i++ {
			vals, err := readRow(br, len(schema))
			if err != nil {
				return nil, err
			}
			t.Rel.Append(vals...)
		}
	}
	return t, nil
}

// readBlocksV2 consumes the v2 tagged block stream into t.
func readBlocksV2(br *bufio.Reader, t *Table, schema rel.Schema) error {
	var body []byte
	for {
		tag, err := br.ReadByte()
		if err != nil {
			return err
		}
		switch tag {
		case tblockEnd:
			return nil
		case tblockRows:
			count, err := binary.ReadUvarint(br)
			if err != nil {
				return err
			}
			if count > maxBlockBytes {
				return fmt.Errorf("storage: implausible row count %d", count)
			}
			t.BlockStarts = append(t.BlockStarts, t.Rel.Len())
			for i := uint64(0); i < count; i++ {
				vals, err := readRow(br, len(schema))
				if err != nil {
					return err
				}
				t.Rel.Append(vals...)
			}
		case tblockColumnar:
			n, err := binary.ReadUvarint(br)
			if err != nil {
				return err
			}
			if n > maxBlockBytes {
				return fmt.Errorf("storage: columnar block of %d bytes exceeds limit", n)
			}
			if uint64(cap(body)) < n {
				body = make([]byte, n)
			}
			body = body[:n]
			if _, err := io.ReadFull(br, body); err != nil {
				return err
			}
			tuples, err := DecodeBlock(body, schema)
			if err != nil {
				return fmt.Errorf("storage: columnar block: %w", err)
			}
			t.ColumnarBlocks++
			if body[0]&blockFlagFlate != 0 {
				t.CompressedBlocks++
			}
			t.BlockStarts = append(t.BlockStarts, t.Rel.Len())
			for _, tp := range tuples {
				t.Rel.Append(tp.Vals...)
			}
		default:
			return fmt.Errorf("storage: bad block tag %d", tag)
		}
	}
}

func readRow(br *bufio.Reader, cols int) ([]rel.Value, error) {
	vals := make([]rel.Value, cols)
	for i := 0; i < cols; i++ {
		kind, err := br.ReadByte()
		if err != nil {
			return nil, err
		}
		switch rel.Kind(kind) {
		case rel.KNull:
			vals[i] = rel.Null()
		case rel.KBool:
			b, err := br.ReadByte()
			if err != nil {
				return nil, err
			}
			vals[i] = rel.Bool(b != 0)
		case rel.KInt:
			n, err := binary.ReadVarint(br)
			if err != nil {
				return nil, err
			}
			vals[i] = rel.Int(n)
		case rel.KFloat:
			var buf [8]byte
			if _, err := io.ReadFull(br, buf[:]); err != nil {
				return nil, err
			}
			vals[i] = rel.Float(math.Float64frombits(binary.LittleEndian.Uint64(buf[:])))
		case rel.KString:
			sLen, err := binary.ReadUvarint(br)
			if err != nil {
				return nil, err
			}
			if sLen > maxStringBytes {
				return nil, fmt.Errorf("storage: implausible string length %d", sLen)
			}
			s := make([]byte, sLen)
			if _, err := io.ReadFull(br, s); err != nil {
				return nil, err
			}
			vals[i] = rel.String(string(s))
		case rel.KRef:
			op, err := binary.ReadVarint(br)
			if err != nil {
				return nil, err
			}
			col, err := binary.ReadVarint(br)
			if err != nil {
				return nil, err
			}
			kLen, err := binary.ReadUvarint(br)
			if err != nil {
				return nil, err
			}
			if kLen > maxStringBytes {
				return nil, fmt.Errorf("storage: implausible ref key length %d", kLen)
			}
			key := make([]byte, kLen)
			if _, err := io.ReadFull(br, key); err != nil {
				return nil, err
			}
			vals[i] = rel.NewRef(rel.Ref{Op: int(op), Key: string(key), Col: int(col)})
		default:
			return nil, fmt.Errorf("storage: bad value kind %d", kind)
		}
	}
	return vals, nil
}

// ShuffleBlocks returns the relation's tuples with whole blocks permuted
// deterministically by the seed — the paper's block-wise random
// partitioning: batches built from contiguous runs of the result contain a
// random subset of blocks.
func (t *Table) ShuffleBlocks(seed uint64) *rel.Relation {
	n := t.Blocks()
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	state := seed
	next := func() uint64 {
		state += 0x9e3779b97f4a7c15
		z := state
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	for i := n - 1; i > 0; i-- {
		j := int(next() % uint64(i+1))
		order[i], order[j] = order[j], order[i]
	}
	out := rel.NewRelation(t.Rel.Schema)
	out.Tuples = make([]rel.Tuple, 0, t.Rel.Len())
	for _, b := range order {
		out.Tuples = append(out.Tuples, t.Block(b)...)
	}
	return out
}
