package rel

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Tuple is a row with a real-valued multiplicity (Appendix A generalises bag
// semantics to multiplicities in R).
type Tuple struct {
	Vals []Value
	Mult float64
}

// Clone deep-copies the tuple's value slice.
func (t Tuple) Clone() Tuple {
	vals := make([]Value, len(t.Vals))
	copy(vals, t.Vals)
	return Tuple{Vals: vals, Mult: t.Mult}
}

// SizeBytes estimates the tuple's memory footprint.
func (t Tuple) SizeBytes() int {
	n := 16 // slice header + mult
	for _, v := range t.Vals {
		n += v.SizeBytes()
	}
	return n
}

// Relation is a bag of tuples over a schema. Tuples with multiplicity zero
// are semantically absent but may appear transiently during delta
// processing.
type Relation struct {
	Schema Schema
	Tuples []Tuple
}

// NewRelation returns an empty relation with the given schema.
func NewRelation(schema Schema) *Relation {
	return &Relation{Schema: schema}
}

// Append adds a row with multiplicity 1.
func (r *Relation) Append(vals ...Value) {
	r.Tuples = append(r.Tuples, Tuple{Vals: vals, Mult: 1})
}

// AppendMult adds a row with an explicit multiplicity.
func (r *Relation) AppendMult(mult float64, vals ...Value) {
	r.Tuples = append(r.Tuples, Tuple{Vals: vals, Mult: mult})
}

// Len returns the number of physical tuples (not the bag cardinality).
func (r *Relation) Len() int { return len(r.Tuples) }

// Card returns the bag cardinality: the sum of multiplicities.
func (r *Relation) Card() float64 {
	var c float64
	for _, t := range r.Tuples {
		c += t.Mult
	}
	return c
}

// Clone deep-copies the relation.
func (r *Relation) Clone() *Relation {
	out := &Relation{Schema: r.Schema, Tuples: make([]Tuple, len(r.Tuples))}
	for i, t := range r.Tuples {
		out.Tuples[i] = t.Clone()
	}
	return out
}

// SizeBytes estimates the relation's memory footprint; used for the state
// size and data-shipped metrics.
func (r *Relation) SizeBytes() int {
	n := 48
	for _, t := range r.Tuples {
		n += t.SizeBytes()
	}
	return n
}

// EncodeKey builds a canonical string key from the given column indexes,
// used for grouping, join hashing, and lineage keys.
func EncodeKey(vals []Value, cols []int) string {
	if len(cols) == 0 {
		return ""
	}
	return string(EncodeKeyInto(nil, vals, cols))
}

// EncodeKeyInto appends the canonical key bytes to buf and returns it — the
// allocation-free form of EncodeKey for callers that reuse a scratch buffer
// (pass buf[:0]) and look groups up via m[string(buf)], which the compiler
// turns into a no-copy map access. EncodeKey is defined in terms of this
// function, so the two renderings are byte-identical by construction.
func EncodeKeyInto(buf []byte, vals []Value, cols []int) []byte {
	for i, c := range cols {
		if i > 0 {
			buf = append(buf, '\x1f')
		}
		v := vals[c]
		// Tag the kind so 1 (int) and "1" (string) do not collide.
		buf = append(buf, byte('0'+v.kind))
		buf = v.appendTo(buf)
	}
	return buf
}

// Canon returns a canonicalised copy: tuples with equal values are merged
// (multiplicities summed), zero-multiplicity tuples dropped, rows sorted.
// Two relations are bag-equal iff their Canon() forms are identical. Refs
// must be resolved before canonicalisation.
func (r *Relation) Canon() *Relation {
	type entry struct {
		t Tuple
	}
	merged := make(map[string]*entry, len(r.Tuples))
	all := make([]int, len(r.Schema))
	for i := range all {
		all[i] = i
	}
	order := make([]string, 0, len(r.Tuples))
	for _, t := range r.Tuples {
		k := EncodeKey(t.Vals, all)
		if e, ok := merged[k]; ok {
			e.t.Mult += t.Mult
		} else {
			merged[k] = &entry{t: t.Clone()}
			order = append(order, k)
		}
	}
	sort.Strings(order)
	out := NewRelation(r.Schema)
	for _, k := range order {
		e := merged[k]
		if e.t.Mult != 0 {
			out.Tuples = append(out.Tuples, e.t)
		}
	}
	return out
}

// EqualBag reports whether two relations are equal as bags, comparing
// numeric values within tolerance eps (aggregate results are floats).
func EqualBag(a, b *Relation, eps float64) bool {
	ca, cb := a.Canon(), b.Canon()
	if len(ca.Tuples) != len(cb.Tuples) {
		return false
	}
	for i := range ca.Tuples {
		ta, tb := ca.Tuples[i], cb.Tuples[i]
		if !floatClose(ta.Mult, tb.Mult, eps) || len(ta.Vals) != len(tb.Vals) {
			return false
		}
		for j := range ta.Vals {
			va, vb := ta.Vals[j], tb.Vals[j]
			if va.IsNumeric() && vb.IsNumeric() {
				if !floatClose(va.Float(), vb.Float(), eps) {
					return false
				}
			} else if !va.Equal(vb) {
				return false
			}
		}
	}
	return true
}

func floatClose(a, b, eps float64) bool {
	// NaN outputs (e.g. AVG over an empty group) compare equal to each
	// other: both engines agree the value is undefined.
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	d := a - b
	if d < 0 {
		d = -d
	}
	m := a
	if m < 0 {
		m = -m
	}
	if bb := b; bb < 0 {
		if -bb > m {
			m = -bb
		}
	} else if bb > m {
		m = bb
	}
	return d <= eps*(1+m)
}

// String renders the relation as an aligned text table (for examples and
// debugging).
func (r *Relation) String() string {
	var b strings.Builder
	widths := make([]int, len(r.Schema))
	header := make([]string, len(r.Schema))
	for i, c := range r.Schema {
		header[i] = c.Name
		widths[i] = len(c.Name)
	}
	cells := make([][]string, len(r.Tuples))
	for ti, t := range r.Tuples {
		row := make([]string, len(t.Vals))
		for i, v := range t.Vals {
			row[i] = v.String()
			if len(row[i]) > widths[i] {
				widths[i] = len(row[i])
			}
		}
		cells[ti] = row
	}
	writeRow := func(row []string) {
		for i, cell := range row {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(header)
	for _, row := range cells {
		writeRow(row)
	}
	return b.String()
}
