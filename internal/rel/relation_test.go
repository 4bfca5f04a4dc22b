package rel

import (
	"math/rand"
	"strings"
	"testing"
)

func sessionsSchema() Schema {
	return Schema{
		{Table: "sessions", Name: "session_id", Type: KString},
		{Table: "sessions", Name: "buffer_time", Type: KFloat},
		{Table: "sessions", Name: "play_time", Type: KFloat},
	}
}

func TestSchemaResolve(t *testing.T) {
	s := sessionsSchema()
	if i := s.MustResolve("", "buffer_time"); i != 1 {
		t.Errorf("resolve buffer_time = %d, want 1", i)
	}
	if i := s.MustResolve("sessions", "play_time"); i != 2 {
		t.Errorf("resolve sessions.play_time = %d, want 2", i)
	}
	if i := s.MustResolve("SESSIONS", "PLAY_TIME"); i != 2 {
		t.Errorf("case-insensitive resolve = %d, want 2", i)
	}
	if _, err := s.Resolve("", "nope"); err == nil {
		t.Error("expected error for unknown column")
	}
	dup := Schema{{Name: "x", Type: KInt}, {Name: "x", Type: KInt}}
	if _, err := dup.Resolve("", "x"); err == nil {
		t.Error("expected ambiguity error")
	}
}

func TestSchemaResolveQualifiedDisambiguates(t *testing.T) {
	s := Schema{
		{Table: "a", Name: "id", Type: KInt},
		{Table: "b", Name: "id", Type: KInt},
	}
	if _, err := s.Resolve("", "id"); err == nil {
		t.Error("unqualified id should be ambiguous")
	}
	if i := s.MustResolve("b", "id"); i != 1 {
		t.Errorf("b.id = %d, want 1", i)
	}
}

func TestSchemaConcatWithTable(t *testing.T) {
	a := Schema{{Name: "x", Type: KInt}}
	b := Schema{{Name: "y", Type: KFloat}}
	c := a.Concat(b)
	if len(c) != 2 || c[0].Name != "x" || c[1].Name != "y" {
		t.Fatalf("concat wrong: %v", c)
	}
	q := c.WithTable("t")
	if q[0].Table != "t" || q[1].Table != "t" {
		t.Error("WithTable must requalify all columns")
	}
	if c[0].Table != "" {
		t.Error("WithTable must not mutate the receiver")
	}
}

func TestSchemaEqual(t *testing.T) {
	a := Schema{{Name: "x", Type: KInt}}
	if !a.Equal(Schema{{Table: "q", Name: "x", Type: KInt}}) {
		t.Error("Equal ignores table qualifier")
	}
	if a.Equal(Schema{{Name: "x", Type: KFloat}}) {
		t.Error("Equal must check types")
	}
	if a.Equal(Schema{}) {
		t.Error("Equal must check length")
	}
}

func TestRelationBasics(t *testing.T) {
	r := NewRelation(sessionsSchema())
	r.Append(String("id1"), Float(36), Float(238))
	r.AppendMult(2.5, String("id2"), Float(58), Float(135))
	if r.Len() != 2 {
		t.Fatalf("Len = %d", r.Len())
	}
	if got := r.Card(); got != 3.5 {
		t.Errorf("Card = %v, want 3.5", got)
	}
}

func TestEncodeKeyDistinguishesKinds(t *testing.T) {
	a := EncodeKey([]Value{Int(1)}, []int{0})
	b := EncodeKey([]Value{String("1")}, []int{0})
	if a == b {
		t.Error("int 1 and string \"1\" must encode differently")
	}
	if EncodeKey([]Value{Int(1)}, nil) != "" {
		t.Error("empty column list must encode to empty key")
	}
	two := EncodeKey([]Value{String("a"), String("b")}, []int{0, 1})
	if !strings.Contains(two, "\x1f") {
		t.Error("multi-column keys must be separator-delimited")
	}
}

func TestCanonMergesAndDropsZero(t *testing.T) {
	s := Schema{{Name: "x", Type: KInt}}
	r := NewRelation(s)
	r.AppendMult(1, Int(1))
	r.AppendMult(2, Int(1))
	r.AppendMult(3, Int(2))
	r.AppendMult(-3, Int(2))
	c := r.Canon()
	if len(c.Tuples) != 1 {
		t.Fatalf("canon kept %d tuples, want 1: %v", len(c.Tuples), c)
	}
	if c.Tuples[0].Mult != 3 || c.Tuples[0].Vals[0].Int() != 1 {
		t.Errorf("canon merged wrong: %+v", c.Tuples[0])
	}
}

func TestEqualBag(t *testing.T) {
	s := Schema{{Name: "x", Type: KFloat}}
	a := NewRelation(s)
	a.Append(Float(1))
	a.Append(Float(1))
	a.Append(Float(2))
	b := NewRelation(s)
	b.Append(Float(2))
	b.AppendMult(2, Float(1))
	if !EqualBag(a, b, 1e-9) {
		t.Error("bags should be equal irrespective of order/merging")
	}
	b.Append(Float(3))
	if EqualBag(a, b, 1e-9) {
		t.Error("bags differ")
	}
}

func TestEqualBagTolerance(t *testing.T) {
	s := Schema{{Name: "x", Type: KFloat}}
	a := NewRelation(s)
	a.Append(Float(100))
	b := NewRelation(s)
	b.Append(Float(100))
	if !EqualBag(a, b, 1e-9) {
		t.Error("identical values must compare equal")
	}
	// Canon keys use String(), so near-equal floats land in separate
	// canon rows and tolerance comparison fails; exact duplicates merge.
	c := NewRelation(s)
	c.Append(Float(250))
	if EqualBag(a, c, 1e-9) {
		t.Error("different values must not compare equal")
	}
}

// Property: Canon is idempotent and preserves bag cardinality.
func TestCanonProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	s := Schema{{Name: "x", Type: KInt}, {Name: "y", Type: KString}}
	for trial := 0; trial < 200; trial++ {
		r := NewRelation(s)
		n := rng.Intn(30)
		for i := 0; i < n; i++ {
			r.AppendMult(float64(rng.Intn(5)), Int(int64(rng.Intn(4))),
				String(string(rune('a'+rng.Intn(3)))))
		}
		c1 := r.Canon()
		c2 := c1.Canon()
		if !EqualBag(c1, c2, 0) {
			t.Fatal("Canon not idempotent")
		}
		if d := r.Card() - c1.Card(); d > 1e-9 || d < -1e-9 {
			t.Fatalf("Canon changed cardinality: %v vs %v", r.Card(), c1.Card())
		}
	}
}

func TestRelationString(t *testing.T) {
	r := NewRelation(sessionsSchema())
	r.Append(String("id1"), Float(36), Float(238))
	out := r.String()
	if !strings.Contains(out, "session_id") || !strings.Contains(out, "id1") {
		t.Errorf("table rendering missing content:\n%s", out)
	}
}

func TestSizeBytesGrows(t *testing.T) {
	r := NewRelation(sessionsSchema())
	base := r.SizeBytes()
	r.Append(String("id1"), Float(36), Float(238))
	if r.SizeBytes() <= base {
		t.Error("size must grow with tuples")
	}
}
