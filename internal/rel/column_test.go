package rel

import (
	"math"
	"math/rand"
	"testing"
)

// randomRelation builds a relation exercising every bank shape: typed
// columns with and without NULLs, an all-NULL column, a mixed-kind column,
// and (optionally) a ref-bearing column, with non-unit multiplicities.
func randomRelation(rng *rand.Rand, n int, withRefs bool) *Relation {
	schema := Schema{
		{Name: "f", Type: KFloat},
		{Name: "i", Type: KInt},
		{Name: "b", Type: KBool},
		{Name: "s", Type: KString},
		{Name: "allnull", Type: KFloat},
		{Name: "mixed", Type: KString},
	}
	if withRefs {
		schema = append(schema, Column{Name: "ref", Type: KFloat})
	}
	r := NewRelation(schema)
	words := []string{"east", "west", "north", "south", ""}
	for row := 0; row < n; row++ {
		vals := make([]Value, 0, len(schema))
		if rng.Intn(8) == 0 {
			vals = append(vals, Null())
		} else {
			f := rng.NormFloat64() * 100
			switch rng.Intn(6) {
			case 0:
				f = math.Trunc(f)
			case 1:
				f = math.NaN()
			case 2:
				f = math.Inf(1 - 2*rng.Intn(2))
			}
			vals = append(vals, Float(f))
		}
		if rng.Intn(8) == 0 {
			vals = append(vals, Null())
		} else {
			vals = append(vals, Int(rng.Int63n(2000)-1000))
		}
		if rng.Intn(8) == 0 {
			vals = append(vals, Null())
		} else {
			vals = append(vals, Bool(rng.Intn(2) == 0))
		}
		if rng.Intn(8) == 0 {
			vals = append(vals, Null())
		} else {
			vals = append(vals, String(words[rng.Intn(len(words))]))
		}
		vals = append(vals, Null())
		switch rng.Intn(3) {
		case 0:
			vals = append(vals, Int(int64(row)))
		case 1:
			vals = append(vals, String(words[rng.Intn(len(words))]))
		default:
			vals = append(vals, Null())
		}
		if withRefs {
			if rng.Intn(2) == 0 {
				vals = append(vals, NewRef(Ref{Op: 3, Key: "k", Col: 1}))
			} else {
				vals = append(vals, Float(rng.Float64()))
			}
		}
		r.AppendMult(float64(1+rng.Intn(3)), vals...)
	}
	return r
}

func sameVal(a, b Value) bool {
	if a.kind != b.kind {
		return false
	}
	if a.kind == KFloat {
		return math.Float64bits(a.f) == math.Float64bits(b.f)
	}
	return a.Equal(b)
}

// TestColumnsRoundTrip checks that ToColumns → Value reconstructs every cell
// (including NaN payload bits) and NULL exactly.
func TestColumnsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, withRefs := range []bool{false, true} {
		r := randomRelation(rng, 200, withRefs)
		c := ToColumns(r.Schema, r.Tuples)
		if c.HasRefs() != withRefs {
			t.Fatalf("HasRefs() = %v, want %v", c.HasRefs(), withRefs)
		}
		if c.N != r.Len() {
			t.Fatalf("N = %d, want %d", c.N, r.Len())
		}
		for row, tp := range r.Tuples {
			for col, want := range tp.Vals {
				if got := c.Value(col, row); !sameVal(got, want) {
					t.Fatalf("cell (%d,%d): got %v (%s), want %v (%s)",
						col, row, got, got.Kind(), want, want.Kind())
				}
			}
		}
	}
}

// TestColumnsEncodeKeyParity checks the columnar key encoder is byte-
// identical to the row encoder over random column subsets.
func TestColumnsEncodeKeyParity(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	r := randomRelation(rng, 150, false)
	c := ToColumns(r.Schema, r.Tuples)
	var buf []byte
	for trial := 0; trial < 50; trial++ {
		cols := rng.Perm(len(r.Schema))[:1+rng.Intn(len(r.Schema))]
		for row := range r.Tuples {
			want := EncodeKeyInto(nil, r.Tuples[row].Vals, cols)
			buf = c.EncodeKeyInto(buf[:0], row, cols)
			if string(buf) != string(want) {
				t.Fatalf("row %d cols %v: columnar key %q, row key %q", row, cols, buf, want)
			}
		}
	}
}

// TestColumnsSubsetView checks subset views are lossless through every
// accessor: built banks read columnar, unbuilt banks fall back to the source
// tuples.
func TestColumnsSubsetView(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, withRefs := range []bool{false, true} {
		r := randomRelation(rng, 150, withRefs)
		full := ToColumns(r.Schema, r.Tuples)
		need := make([]bool, len(r.Schema))
		for col := range need {
			need[col] = rng.Intn(2) == 0
		}
		sub := ToColumnsSubset(r.Schema, r.Tuples, need)
		for row, tp := range r.Tuples {
			for col, want := range tp.Vals {
				if got := sub.Value(col, row); !sameVal(got, want) {
					t.Fatalf("cell (%d,%d) need=%v: got %v, want %v", col, row, need[col], got, want)
				}
			}
		}
		keyCols := []int{0, 3, 5}
		for row := range r.Tuples {
			got := sub.EncodeKeyInto(nil, row, keyCols)
			want := full.EncodeKeyInto(nil, row, keyCols)
			if string(got) != string(want) {
				t.Fatalf("row %d: subset key %q, want %q", row, got, want)
			}
		}
	}
}

// TestToColumnsSubsetNilNeed checks nil need means a full conversion.
func TestToColumnsSubsetNilNeed(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	r := randomRelation(rng, 50, false)
	c := ToColumnsSubset(r.Schema, r.Tuples, nil)
	if c.built != nil {
		t.Fatalf("nil need should build every bank")
	}
}
