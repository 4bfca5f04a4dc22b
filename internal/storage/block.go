// Schema-aware columnar block codec — the bulk row format of .iol table files,
// where the row-at-a-time spill codec would pay a tag byte per cell, a length
// prefix per row, and eight multiplicity bytes per tuple. A block turns n rows
// into per-column banks:
//
//	byte    header: low 4 bits format version (1), bit 4 set when the body
//	        is flate-compressed
//	uvarint row count
//	uvarint column count (must match the caller's schema at decode)
//	uvarint body byte length (raw, pre-compression)
//	body    (possibly deflated):
//	    multiplicity column: 1 byte tag — 0 means every Mult is 1.0 (the
//	        overwhelmingly common case for base tables, 1 byte total),
//	        1 means n raw float64 bit patterns follow
//	    per schema column, in schema order:
//	        1 byte encoding tag (colNull/colBool/colInt/colFloat/colStrRaw/
//	            colStrDict/colMixed)
//	        tags other than colNull/colMixed: 1 byte has-nulls flag; when
//	            set, a validity bitmap of ceil(n/8) bytes (bit set = cell
//	            present) — the payload then covers only the present cells
//	        colBool:    present-cell bitmap, ceil(m/8) bytes
//	        colInt:     delta-encoded varints (first value, then differences)
//	        colFloat:   m raw float64 bit patterns (little-endian banks)
//	        colStrRaw:  m uvarint lengths, then the concatenated bytes
//	        colStrDict: uvarint dictionary size d, d dictionary entries
//	            (uvarint length + bytes, first-occurrence order), then m
//	            uvarint dictionary indexes
//	        colMixed:   every cell tagged and encoded as in the row codec
//	            (the fallback for columns whose cells mix kinds)
//
// KRef cells are deliberately rejected: lineage references only occur in
// mid-pipeline state, which spills through the row codec
// (AppendSpillRow). Encoders that may see KRef fall back to rows on error.
//
// Decoding is strict and allocation-bounded: every count is validated
// against the remaining bytes before any slice is sized from it, and the row
// count is capped relative to the body length (plus a fixed floor) so a
// corrupt header cannot drive an unbounded allocation. Compression never
// changes decoded contents — DecodeBlock(EncodeBlock(rows, compress)) is
// bit-identical for either compress setting, which the equivalence tests and
// FuzzBlockCodec pin.

package storage

import (
	"fmt"

	"iolap/internal/rel"
	"iolap/internal/wire"
)

const (
	blockVersion     = 1
	blockFlagFlate   = 0x10
	blockVerMask     = 0x0f
	blockMultOnes    = 0
	blockMultRaw     = 1
	blockCompressMin = 64 // don't bother deflating tiny bodies
)

// BlockMaxRows is the most rows one block may hold. Encoders chunk larger
// relations; the cap is what lets the decoder bound its allocations against
// a corrupt header (see maxBlockRows).
const BlockMaxRows = 1 << 16

// Column encoding tags.
const (
	colNull byte = iota
	colBool
	colInt
	colFloat
	colStrRaw
	colStrDict
	colMixed
)

// maxBlockRows bounds the row count a decoded header may promise, relative
// to the available bytes: legitimate blocks carry at least a bitmap bit or a
// varint per row for non-degenerate columns, and the fixed BlockMaxRows
// floor admits degenerate blocks (all-NULL columns encode to zero bytes per
// row) up to the encoder's own chunk limit.
func maxBlockRows(avail int) uint64 {
	return uint64(BlockMaxRows + 64*avail)
}

// EncodeBlock appends the columnar encoding of tuples (which must all match
// schema's arity) to dst and returns the extended slice. When compress is
// set and the body is large enough, it is flate-compressed — unless that
// fails to shrink it, so the flag only ever saves bytes. Errors (a KRef
// cell, an arity mismatch) leave the semantic content of dst unusable;
// callers fall back to the row codec for the whole block.
func EncodeBlock(dst []byte, schema rel.Schema, tuples []rel.Tuple, compress bool) ([]byte, error) {
	n := len(tuples)
	if n > BlockMaxRows {
		return dst, fmt.Errorf("storage: block of %d rows exceeds BlockMaxRows %d", n, BlockMaxRows)
	}
	body := make([]byte, 0, 16+16*n)

	// Multiplicity column.
	allOnes := true
	for _, t := range tuples {
		if t.Mult != 1 {
			allOnes = false
			break
		}
	}
	if allOnes {
		body = append(body, blockMultOnes)
	} else {
		body = append(body, blockMultRaw)
		for _, t := range tuples {
			body = wire.AppendF64(body, t.Mult)
		}
	}

	for col := range schema {
		var err error
		body, err = appendColumn(body, tuples, col)
		if err != nil {
			return dst, err
		}
	}

	flags := byte(blockVersion)
	stored := body
	if compress && len(body) >= blockCompressMin {
		if comp := deflate(nil, body); len(comp) < len(body) {
			flags |= blockFlagFlate
			stored = comp
		}
	}
	dst = append(dst, flags)
	dst = wire.AppendUvarint(dst, uint64(n))
	dst = wire.AppendUvarint(dst, uint64(len(schema)))
	dst = wire.AppendUvarint(dst, uint64(len(body)))
	return append(dst, stored...), nil
}

// appendColumn encodes column col of every tuple.
func appendColumn(body []byte, tuples []rel.Tuple, col int) ([]byte, error) {
	n := len(tuples)
	// Classify: one non-null kind => typed bank; otherwise mixed.
	kind := rel.KNull
	hasNulls := false
	mixed := false
	for i := range tuples {
		if col >= len(tuples[i].Vals) {
			return body, fmt.Errorf("storage: block row %d has %d columns, want > %d", i, len(tuples[i].Vals), col)
		}
		k := tuples[i].Vals[col].Kind()
		switch k {
		case rel.KRef:
			return body, fmt.Errorf("storage: block codec cannot encode %v values", k)
		case rel.KNull:
			hasNulls = true
		default:
			if kind == rel.KNull {
				kind = k
			} else if kind != k {
				mixed = true
			}
		}
	}

	if mixed {
		body = append(body, colMixed)
		var err error
		for i := range tuples {
			body, err = appendValue(body, tuples[i].Vals[col])
			if err != nil {
				return body, err
			}
		}
		return body, nil
	}
	if kind == rel.KNull { // every cell NULL
		return append(body, colNull), nil
	}

	switch kind {
	case rel.KBool:
		body = append(body, colBool)
	case rel.KInt:
		body = append(body, colInt)
	case rel.KFloat:
		body = append(body, colFloat)
	case rel.KString:
		// Dictionary-encode when it pays: fewer distinct values than 3/4 of
		// the rows. The scan is exact, so the choice is deterministic.
		dict := make(map[string]int)
		for i := range tuples {
			v := tuples[i].Vals[col]
			if v.Kind() == rel.KString {
				if _, ok := dict[v.Str()]; !ok {
					dict[v.Str()] = len(dict)
				}
			}
		}
		if 4*len(dict) <= 3*n {
			return appendStrDict(body, tuples, col, hasNulls, dict)
		}
		body = append(body, colStrRaw)
	}

	body = appendValidity(body, tuples, col, hasNulls, n)

	switch kind {
	case rel.KBool:
		var bits []byte
		m := 0
		for i := range tuples {
			v := tuples[i].Vals[col]
			if v.IsNull() {
				continue
			}
			if m%8 == 0 {
				bits = append(bits, 0)
			}
			if v.Bool() {
				bits[m/8] |= 1 << (m % 8)
			}
			m++
		}
		body = append(body, bits...)
	case rel.KInt:
		prev := int64(0)
		for i := range tuples {
			v := tuples[i].Vals[col]
			if v.IsNull() {
				continue
			}
			body = wire.AppendVarint(body, v.Int()-prev)
			prev = v.Int()
		}
	case rel.KFloat:
		for i := range tuples {
			v := tuples[i].Vals[col]
			if !v.IsNull() {
				body = wire.AppendF64(body, v.Float())
			}
		}
	case rel.KString:
		for i := range tuples {
			v := tuples[i].Vals[col]
			if !v.IsNull() {
				body = wire.AppendUvarint(body, uint64(len(v.Str())))
			}
		}
		for i := range tuples {
			v := tuples[i].Vals[col]
			if !v.IsNull() {
				body = append(body, v.Str()...)
			}
		}
	}
	return body, nil
}

// appendValidity writes the has-nulls flag and, when set, the presence
// bitmap over all n rows.
func appendValidity(body []byte, tuples []rel.Tuple, col int, hasNulls bool, n int) []byte {
	if !hasNulls {
		return append(body, 0)
	}
	body = append(body, 1)
	start := len(body)
	body = append(body, make([]byte, (n+7)/8)...)
	for i := range tuples {
		if !tuples[i].Vals[col].IsNull() {
			body[start+i/8] |= 1 << (i % 8)
		}
	}
	return body
}

// appendStrDict writes a dictionary-encoded string column. dict maps each
// distinct string to its first-occurrence index, which fixes the entry order
// deterministically.
func appendStrDict(body []byte, tuples []rel.Tuple, col int, hasNulls bool, dict map[string]int) ([]byte, error) {
	body = append(body, colStrDict)
	body = appendValidity(body, tuples, col, hasNulls, len(tuples))
	entries := make([]string, len(dict))
	for s, id := range dict {
		entries[id] = s
	}
	body = wire.AppendUvarint(body, uint64(len(entries)))
	for _, s := range entries {
		body = wire.AppendStr(body, s)
	}
	for i := range tuples {
		v := tuples[i].Vals[col]
		if !v.IsNull() {
			body = wire.AppendUvarint(body, uint64(dict[v.Str()]))
		}
	}
	return body, nil
}

// DecodeBlock decodes one block encoded by EncodeBlock back into tuples.
// Every row gets a freshly allocated value slice (decoded blocks own their
// memory; nothing aliases b). The decode is strict: the body must be
// consumed exactly and every count is bounds-checked before use.
func DecodeBlock(b []byte, schema rel.Schema) ([]rel.Tuple, error) {
	hdr := wire.NewReader(b)
	flags := hdr.Byte("block header")
	nRows := hdr.Uvarint("block row count")
	nCols := hdr.Uvarint("block column count")
	rawLen := hdr.Uvarint("block body length")
	if err := hdr.Err(); err != nil {
		return nil, fmt.Errorf("storage: %w", err)
	}
	if flags&blockVerMask != blockVersion {
		return nil, fmt.Errorf("storage: block: unknown version %d", flags&blockVerMask)
	}
	if nCols != uint64(len(schema)) {
		return nil, fmt.Errorf("storage: block has %d columns, schema has %d", nCols, len(schema))
	}
	if nRows > maxBlockRows(len(b)) {
		return nil, fmt.Errorf("storage: block row count %d too large for %d bytes", nRows, len(b))
	}
	body := hdr.Rest()
	if flags&blockFlagFlate != 0 {
		var err error
		if body, err = inflate(body, int(rawLen)); err != nil {
			return nil, err
		}
	} else if uint64(len(body)) != rawLen {
		return nil, fmt.Errorf("storage: block body is %d bytes, header promises %d", len(body), rawLen)
	}

	n := int(nRows)
	r := wire.NewReader(body)
	tuples := make([]rel.Tuple, n)
	vals := make([]rel.Value, n*len(schema)) // one backing slab, sliced per row
	for i := range tuples {
		tuples[i].Vals = vals[i*len(schema) : (i+1)*len(schema) : (i+1)*len(schema)]
		tuples[i].Mult = 1
	}

	switch multTag := r.Byte("multiplicity tag"); multTag {
	case blockMultOnes:
	case blockMultRaw:
		for i := range tuples {
			tuples[i].Mult = r.F64("multiplicity bank")
		}
	default:
		return nil, fmt.Errorf("storage: block: bad multiplicity tag %d", multTag)
	}

	for col := range schema {
		if err := decodeColumn(r, tuples, col, n); err != nil {
			return nil, fmt.Errorf("storage: block column %d: %w", col, err)
		}
	}
	if err := r.Done("block body"); err != nil {
		return nil, fmt.Errorf("storage: %w", err)
	}
	return tuples, nil
}

// decodeColumn fills column col of every tuple from the reader. Loops over
// the n rows run to completion on a latched reader error (every read then
// yields zero without advancing), which the final r.Err reports.
func decodeColumn(r *wire.Reader, tuples []rel.Tuple, col, n int) error {
	tag := r.Byte("encoding tag")
	switch tag {
	case colNull:
		return r.Err() // the zero Value is NULL
	case colMixed:
		for i := 0; i < n && r.Err() == nil; i++ {
			v := readValue(r)
			if v.Kind() == rel.KRef {
				return fmt.Errorf("storage: block codec cannot hold REF values")
			}
			tuples[i].Vals[col] = v
		}
		return r.Err()
	case colBool, colInt, colFloat, colStrRaw, colStrDict:
	default:
		return fmt.Errorf("bad encoding tag %d", tag)
	}

	var validity []byte // nil: every cell present
	m := n              // present cells
	if r.Bool("has-nulls flag") {
		validity = r.Take((n+7)/8, "validity bitmap")
		if r.Err() != nil {
			return r.Err()
		}
		m = 0
		for i := 0; i < n; i++ {
			if validity[i/8]&(1<<(i%8)) != 0 {
				m++
			}
		}
	}
	present := func(i int) bool {
		return validity == nil || validity[i/8]&(1<<(i%8)) != 0
	}

	switch tag {
	case colBool:
		bits := r.Take((m+7)/8, "bool bitmap")
		if r.Err() != nil {
			return r.Err()
		}
		j := 0
		for i := 0; i < n; i++ {
			if present(i) {
				tuples[i].Vals[col] = rel.Bool(bits[j/8]&(1<<(j%8)) != 0)
				j++
			}
		}
	case colInt:
		prev := int64(0)
		for i := 0; i < n; i++ {
			if present(i) {
				prev += r.Varint("int delta")
				tuples[i].Vals[col] = rel.Int(prev)
			}
		}
	case colFloat:
		for i := 0; i < n; i++ {
			if present(i) {
				tuples[i].Vals[col] = rel.Float(r.F64("float bank"))
			}
		}
	case colStrRaw:
		// m lengths, each bounded by the bytes after it, then the
		// concatenated bytes; Take rejects a total the body cannot hold.
		lens := make([]int, m)
		for j := range lens {
			lens[j] = r.Count("string length")
		}
		for i, j := 0, 0; i < n; i++ {
			if present(i) {
				tuples[i].Vals[col] = rel.String(string(r.Take(lens[j], "string bytes")))
				j++
			}
		}
	case colStrDict:
		dict := make([]rel.Value, r.Count("dictionary size"))
		for j := range dict {
			dict[j] = rel.String(r.Str("dictionary entry"))
		}
		for i := 0; i < n; i++ {
			if !present(i) {
				continue
			}
			id := r.Uvarint("dictionary index")
			if id >= uint64(len(dict)) {
				if r.Err() != nil {
					return r.Err()
				}
				return fmt.Errorf("dictionary index %d out of range %d", id, len(dict))
			}
			tuples[i].Vals[col] = dict[id]
		}
	}
	return r.Err()
}
