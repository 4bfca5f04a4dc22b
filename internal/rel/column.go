package rel

// Columnar storage for relations (DESIGN.md §14). A Columns value is the
// in-memory twin of the §11 block codec layout: one typed bank per schema
// column (float64/int64 slabs, dictionary-coded strings) plus a validity
// bitmap when the column has NULLs. The columnar filter (a select directly
// above a streamed scan) reads banks batch-at-a-time; everything else keeps
// using the row view. Banks are built from rows (ToColumns) and give every
// cell back exactly (Columns.Value); nothing caches a view — the select
// builds the one its predicate reads, per batch.

// Bitmap is a fixed-length bitset used for column validity (bit set =
// value present) and row selections.
type Bitmap struct {
	bits []uint64
	n    int
}

// NewBitmap returns an all-clear bitmap over n positions.
func NewBitmap(n int) *Bitmap {
	return &Bitmap{bits: make([]uint64, (n+63)/64), n: n}
}

// Len returns the number of positions.
func (b *Bitmap) Len() int { return b.n }

// Set marks position i.
func (b *Bitmap) Set(i int) { b.bits[i>>6] |= 1 << (uint(i) & 63) }

// Get reports whether position i is marked.
func (b *Bitmap) Get(i int) bool { return b.bits[i>>6]&(1<<(uint(i)&63)) != 0 }

// ColumnBank holds one column's cells in the densest homogeneous form the
// data admits. Exactly one representation is populated:
//
//   - Kind KFloat:  Floats, absent cells zero-filled
//   - Kind KInt:    Ints
//   - Kind KBool:   Ints with 0/1 payloads
//   - Kind KString: Dict + Codes (first-occurrence dictionary order, the
//     same order the block codec writes)
//   - Kind KNull:   no payload — every cell is NULL
//   - Mixed non-nil: heterogeneous kinds or lineage refs; cells are stored
//     verbatim and Kind is meaningless
//
// Valid (bit set = present) is nil when every cell is present.
type ColumnBank struct {
	Kind   Kind
	Floats []float64
	Ints   []int64
	Dict   []string
	Codes  []int32
	Valid  *Bitmap
	Mixed  []Value
}

// Columns is the columnar view of a relation: N rows over Schema, one bank
// per column. Multiplicities are not part of the view.
//
// A subset view (ToColumnsSubset) materialises banks only for the columns
// its consumer declared; the rest stay unbuilt (built[col] == false) and
// every accessor falls back to the source tuples for them, so the view is
// still lossless — unbuilt columns just read at row speed.
type Columns struct {
	Schema Schema
	N      int
	Banks  []ColumnBank

	// rows/built are set only on subset views: rows is the source tuple
	// slice backing unbuilt columns, built marks which banks materialised.
	// HasRefs then covers built columns only — the vectorized consumers a
	// subset is cut for never touch the rest.
	rows  []Tuple
	built []bool

	hasRefs bool
}

// ToColumns converts a tuple slice to banks. The conversion is lossless:
// Value(col, row) reconstructs each cell exactly.
func ToColumns(schema Schema, tuples []Tuple) *Columns {
	n := len(tuples)
	c := &Columns{Schema: schema, N: n, Banks: make([]ColumnBank, len(schema))}
	for col := range schema {
		c.buildBank(col, tuples)
	}
	return c
}

// ToColumnsSubset converts only the columns marked in need (nil need means
// every column), leaving the rest as row-backed fallbacks. The columnar
// filter uses it to build only its predicate's banks — a high-cardinality
// string column outside the predicate would otherwise pay a dictionary
// insert per row for nothing.
func ToColumnsSubset(schema Schema, tuples []Tuple, need []bool) *Columns {
	if need == nil {
		return ToColumns(schema, tuples)
	}
	c := &Columns{
		Schema: schema,
		N:      len(tuples),
		Banks:  make([]ColumnBank, len(schema)),
		rows:   tuples,
		built:  make([]bool, len(schema)),
	}
	for col := range schema {
		if col < len(need) && need[col] {
			c.buildBank(col, tuples)
			c.built[col] = true
		}
	}
	return c
}

// buildBank converts one column in a single optimistic pass: the first
// present cell picks the bank kind and the loop commits values directly;
// the validity bitmap materialises only when the first NULL appears (with
// the present prefix back-filled), and a kind mismatch or lineage ref
// restarts the column as a verbatim Mixed bank — the rare case paying the
// second pass instead of every homogeneous column paying a pre-scan.
func (c *Columns) buildBank(col int, tuples []Tuple) {
	b := &c.Banks[col]
	n := len(tuples)
	first := 0
	kind := KNull
	for ; first < n; first++ {
		if k := tuples[first].Vals[col].kind; k != KNull {
			kind = k
			break
		}
	}
	if kind == KNull {
		return // every cell NULL: Kind alone carries the column
	}
	if kind == KRef {
		c.mixedBank(b, col, tuples)
		return
	}
	b.Kind = kind
	var valid *Bitmap
	if first > 0 {
		valid = NewBitmap(n)
	}
	// nullAt registers the column's first mid-run NULL: the bitmap appears
	// with the present prefix [first, j) marked.
	nullAt := func(j int) {
		if valid == nil {
			valid = NewBitmap(n)
			for i := first; i < j; i++ {
				valid.Set(i)
			}
		}
	}
	switch kind {
	case KBool, KInt:
		ints := make([]int64, n)
		for j := first; j < n; j++ {
			v := tuples[j].Vals[col]
			if v.kind == KNull {
				nullAt(j)
				continue
			}
			if v.kind != kind {
				c.mixedBank(b, col, tuples)
				return
			}
			if valid != nil {
				valid.Set(j)
			}
			ints[j] = v.i
		}
		b.Ints = ints
	case KFloat:
		floats := make([]float64, n)
		for j := first; j < n; j++ {
			v := tuples[j].Vals[col]
			if v.kind == KNull {
				nullAt(j)
				continue
			}
			if v.kind != kind {
				c.mixedBank(b, col, tuples)
				return
			}
			if valid != nil {
				valid.Set(j)
			}
			floats[j] = v.f
		}
		b.Floats = floats
	case KString:
		codes := make([]int32, n)
		var dict []string
		idx := make(map[string]int32, 16)
		for j := first; j < n; j++ {
			v := tuples[j].Vals[col]
			if v.kind == KNull {
				nullAt(j)
				continue
			}
			if v.kind != kind {
				c.mixedBank(b, col, tuples)
				return
			}
			if valid != nil {
				valid.Set(j)
			}
			code, ok := idx[v.s]
			if !ok {
				code = int32(len(dict))
				idx[v.s] = code
				dict = append(dict, v.s)
			}
			codes[j] = code
		}
		b.Codes, b.Dict = codes, dict
	}
	b.Valid = valid
}

// mixedBank stores a heterogeneous column verbatim.
func (c *Columns) mixedBank(b *ColumnBank, col int, tuples []Tuple) {
	*b = ColumnBank{Mixed: make([]Value, len(tuples))}
	for i := range tuples {
		v := tuples[i].Vals[col]
		b.Mixed[i] = v
		if v.kind == KRef {
			c.hasRefs = true
		}
	}
}

// HasRefs reports whether any cell is a lineage ref. Vectorized paths that
// cannot resolve refs check this once per batch and fall back to rows.
func (c *Columns) HasRefs() bool { return c.hasRefs }

// Value reconstructs a cell exactly as it appeared in the source tuple.
func (c *Columns) Value(col, row int) Value {
	if c.built != nil && !c.built[col] {
		return c.rows[row].Vals[col]
	}
	b := &c.Banks[col]
	if b.Mixed != nil {
		return b.Mixed[row]
	}
	if b.Valid != nil && !b.Valid.Get(row) {
		return Value{}
	}
	switch b.Kind {
	case KBool:
		return Value{kind: KBool, i: b.Ints[row]}
	case KInt:
		return Value{kind: KInt, i: b.Ints[row]}
	case KFloat:
		return Value{kind: KFloat, f: b.Floats[row]}
	case KString:
		return Value{kind: KString, s: b.Dict[b.Codes[row]]}
	}
	return Value{}
}

// EncodeKeyInto appends the canonical key of row over cols to buf — byte-
// identical to EncodeKeyInto on the materialised row, because both go
// through the same Value rendering.
func (c *Columns) EncodeKeyInto(buf []byte, row int, cols []int) []byte {
	for i, col := range cols {
		if i > 0 {
			buf = append(buf, '\x1f')
		}
		v := c.Value(col, row)
		buf = append(buf, byte('0'+v.kind))
		buf = v.appendTo(buf)
	}
	return buf
}
