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
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"io/fs"

	"iolap/internal/rel"
	"iolap/internal/wire"
)

var magic = [4]byte{'I', 'O', 'L', '1'}
var magic2 = [4]byte{'I', 'O', 'L', '2'}

// v2 block tags.
const (
	tblockEnd      = 0 // no more blocks
	tblockRows     = 1 // row-format block (v1 encoding)
	tblockColumnar = 2 // §11 columnar block (EncodeBlock body)
)

// DefaultBlockRows is the row count per block when unspecified.
const DefaultBlockRows = 1024

// WriteColumnar serialises a relation in the v2 tagged-block format: each
// block is stored with the §11 columnar codec (optionally flate-compressed)
// unless it contains cells the codec rejects (lineage KRefs), in which case
// that block alone falls back to the v1 row encoding. blockRows may not
// exceed BlockMaxRows, the codec's cap.
func WriteColumnar(w io.Writer, r *rel.Relation, blockRows int, compress bool) error {
	if blockRows <= 0 {
		blockRows = DefaultBlockRows
	}
	if blockRows > BlockMaxRows {
		return fmt.Errorf("storage: %d rows per block exceeds BlockMaxRows %d", blockRows, BlockMaxRows)
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
		// A row is its values in the tagged value encoding.
		rows := scratch[:0]
		for _, tp := range tuples {
			for _, v := range tp.Vals {
				var err error
				if rows, err = appendValue(rows, v); err != nil {
					return err
				}
			}
		}
		scratch = rows
		bw.WriteByte(tblockRows)
		writeUvarint(bw, uint64(len(tuples)))
		bw.Write(rows)
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
// magic: "IOL1" row blocks or "IOL2" tagged columnar/row blocks. It reads the
// whole input and decodes it with one wire.Reader, so every count and length
// is bounded by the bytes present, and bytes after the table are corruption.
func Read(r io.Reader) (*Table, error) {
	data, err := readAll(r)
	if err != nil {
		return nil, fmt.Errorf("storage: %w", err)
	}
	if len(data) < len(magic) {
		return nil, fmt.Errorf("storage: %w", io.ErrUnexpectedEOF)
	}
	m := [4]byte(data)
	if m != magic && m != magic2 {
		return nil, fmt.Errorf("storage: bad magic %q", m)
	}
	in := wire.NewReader(data[len(m):])
	schema := make(rel.Schema, in.Count("column count"))
	for i := range schema {
		schema[i].Name = in.Str("column name")
		schema[i].Type = rel.Kind(in.Byte("column kind"))
	}
	t := &Table{Rel: rel.NewRelation(schema), V2: m == magic2}
	var blocks [][]rel.Tuple // moved into t.Rel in one allocation at the end
	rows := 0
	for {
		tag, n := byte(tblockRows), 0
		if t.V2 {
			tag = in.Byte("block tag")
		}
		if tag == tblockRows {
			n = in.Count("block row count")
			if n == 0 && !t.V2 {
				tag = tblockEnd // v1 has no tags: an empty row block ends the table
			}
		}
		// A failed read returns 0, which is tblockEnd: check before trusting it.
		if err := in.Err(); err != nil {
			return nil, fmt.Errorf("storage: %w", err)
		}
		var block []rel.Tuple
		switch tag {
		case tblockEnd:
			if err := in.Done("table"); err != nil {
				return nil, fmt.Errorf("storage: %w", err)
			}
			t.Rel.Tuples = make([]rel.Tuple, 0, rows)
			for _, b := range blocks {
				for _, tp := range b {
					t.Rel.Append(tp.Vals...)
				}
			}
			return t, nil
		case tblockRows:
			for i := 0; i < n && in.Err() == nil; i++ {
				vals := make([]rel.Value, len(schema))
				for c := range vals {
					vals[c] = readValue(in)
				}
				block = append(block, rel.Tuple{Vals: vals})
			}
			if err := in.Err(); err != nil {
				return nil, err
			}
		case tblockColumnar:
			body := in.Bytes("columnar block")
			if err := in.Err(); err != nil {
				return nil, fmt.Errorf("storage: %w", err)
			}
			if block, err = DecodeBlock(body, schema); err != nil {
				return nil, fmt.Errorf("storage: columnar block: %w", err)
			}
			t.ColumnarBlocks++
			if body[0]&blockFlagFlate != 0 {
				t.CompressedBlocks++
			}
		default:
			return nil, fmt.Errorf("storage: bad block tag %d", tag)
		}
		t.BlockStarts = append(t.BlockStarts, rows)
		blocks = append(blocks, block)
		rows += len(block)
	}
}

// readAll reads r to its end into one buffer, pre-sized from the length the
// reader reports (a file's Stat, a bytes.Reader's Len) so that loading a
// table does not pay for regrowth copies.
func readAll(r io.Reader) ([]byte, error) {
	size := 0
	switch s := r.(type) {
	case interface{ Stat() (fs.FileInfo, error) }:
		if fi, err := s.Stat(); err == nil && fi.Mode().IsRegular() {
			size = int(fi.Size())
		}
	case interface{ Len() int }:
		size = s.Len()
	}
	buf := bytes.NewBuffer(make([]byte, 0, size+bytes.MinRead))
	_, err := buf.ReadFrom(r)
	return buf.Bytes(), err
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
