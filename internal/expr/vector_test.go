package expr

import (
	"math"
	"math/rand"
	"testing"

	"iolap/internal/rel"
)

// vecTestSchema covers every bank shape the columnar layer produces: a
// float column with NaN/±Inf and NULLs, ints, a dictionary string column,
// bools, an all-NULL column, and a mixed-kind column.
func vecTestSchema() rel.Schema {
	return rel.Schema{
		{Name: "f", Type: rel.KFloat},
		{Name: "i", Type: rel.KInt},
		{Name: "s", Type: rel.KString},
		{Name: "b", Type: rel.KBool},
		{Name: "allnull", Type: rel.KFloat},
		{Name: "mixed", Type: rel.KString},
	}
}

var vecTestWords = []string{"east", "west", "north", "south", ""}

func vecTestRelation(rng *rand.Rand, n int) *rel.Relation {
	r := rel.NewRelation(vecTestSchema())
	for row := 0; row < n; row++ {
		vals := make([]rel.Value, 0, 6)
		if rng.Intn(6) == 0 {
			vals = append(vals, rel.Null())
		} else {
			f := float64(rng.Intn(200)-100) / 4.0
			switch rng.Intn(12) {
			case 0:
				f = math.NaN()
			case 1:
				f = math.Inf(1 - 2*rng.Intn(2))
			}
			vals = append(vals, rel.Float(f))
		}
		if rng.Intn(6) == 0 {
			vals = append(vals, rel.Null())
		} else {
			vals = append(vals, rel.Int(rng.Int63n(100)-50))
		}
		if rng.Intn(6) == 0 {
			vals = append(vals, rel.Null())
		} else {
			vals = append(vals, rel.String(vecTestWords[rng.Intn(len(vecTestWords))]))
		}
		if rng.Intn(6) == 0 {
			vals = append(vals, rel.Null())
		} else {
			vals = append(vals, rel.Bool(rng.Intn(2) == 0))
		}
		vals = append(vals, rel.Null())
		switch rng.Intn(4) {
		case 0:
			vals = append(vals, rel.Int(int64(row%7)))
		case 1:
			vals = append(vals, rel.String(vecTestWords[rng.Intn(len(vecTestWords))]))
		case 2:
			vals = append(vals, rel.Bool(row%2 == 0))
		default:
			vals = append(vals, rel.Null())
		}
		r.Append(vals...)
	}
	return r
}

func vecTestConst(rng *rand.Rand) rel.Value {
	switch rng.Intn(8) {
	case 0:
		return rel.Null()
	case 1:
		return rel.Bool(rng.Intn(2) == 0)
	case 2:
		return rel.String(vecTestWords[rng.Intn(len(vecTestWords))])
	case 3:
		return rel.Int(rng.Int63n(100) - 50)
	case 4:
		return rel.Float(math.NaN())
	default:
		return rel.Float(float64(rng.Intn(200)-100) / 4.0)
	}
}

func vecTestOperand(rng *rand.Rand, nCols int) Expr {
	if rng.Intn(2) == 0 {
		return &Col{Idx: rng.Intn(nCols)}
	}
	return &Const{V: vecTestConst(rng)}
}

var vecTestOps = []CmpOp{Eq, Ne, Lt, Le, Gt, Ge}

// vecTestPred generates a random predicate inside the vectorizable subset.
func vecTestPred(rng *rand.Rand, nCols, depth int) Expr {
	if depth > 0 && rng.Intn(2) == 0 {
		switch rng.Intn(3) {
		case 0:
			return &And{L: vecTestPred(rng, nCols, depth-1), R: vecTestPred(rng, nCols, depth-1)}
		case 1:
			return &Or{L: vecTestPred(rng, nCols, depth-1), R: vecTestPred(rng, nCols, depth-1)}
		default:
			return &Not{E: vecTestPred(rng, nCols, depth-1)}
		}
	}
	switch rng.Intn(6) {
	case 0:
		return &Const{V: vecTestConst(rng)}
	case 1:
		return &Col{Idx: rng.Intn(nCols)}
	case 2:
		items := make([]Expr, 1+rng.Intn(4))
		for i := range items {
			items[i] = &Const{V: vecTestConst(rng)}
		}
		return &In{E: &Col{Idx: rng.Intn(nCols)}, List: items, Inv: rng.Intn(2) == 0}
	default:
		return &Cmp{
			Op: vecTestOps[rng.Intn(len(vecTestOps))],
			L:  vecTestOperand(rng, nCols),
			R:  vecTestOperand(rng, nCols),
		}
	}
}

// TestCompileVecEquivalence drives randomized vectorizable predicates over
// randomized columnar batches in random chunk spans and demands verdict-
// for-verdict agreement with the row path's acceptance test, Holds.
func TestCompileVecEquivalence(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		r := vecTestRelation(rng, 50+rng.Intn(150))
		cols := rel.ToColumns(r.Schema, r.Tuples)
		for trial := 0; trial < 60; trial++ {
			pred := vecTestPred(rng, len(r.Schema), 3)
			vp, ok := CompileVec(pred)
			if !ok {
				t.Fatalf("seed %d: in-subset predicate %v did not compile", seed, pred)
			}
			for lo := 0; lo < r.Len(); {
				hi := lo + 1 + rng.Intn(r.Len()-lo)
				pass := make([]bool, hi-lo)
				vp.EvalCols(cols, lo, hi, pass)
				for i := lo; i < hi; i++ {
					want := Holds(pred, r.Tuples[i].Vals, nil)
					if pass[i-lo] != want {
						t.Fatalf("seed %d trial %d row %d span [%d,%d): vectorized %v, row path %v\npred: %#v\nrow: %v",
							seed, trial, i, lo, hi, pass[i-lo], want, pred, r.Tuples[i].Vals)
					}
				}
				lo = hi
			}
		}
	}
}

// TestCompileVecRejects pins the shapes that must stay on the row path.
func TestCompileVecRejects(t *testing.T) {
	cases := []struct {
		name string
		e    Expr
	}{
		{"arith", &Cmp{Op: Gt, L: NewArith(Add, &Col{Idx: 0}, &Const{V: rel.Int(1)}), R: &Const{V: rel.Int(0)}}},
		{"case", &Case{Else: &Const{V: rel.Bool(true)}}},
		{"in-non-col", &In{E: &Const{V: rel.Int(1)}, List: []Expr{&Const{V: rel.Int(1)}}}},
		{"in-non-const-item", &In{E: &Col{Idx: 0}, List: []Expr{&Col{Idx: 1}}}},
		{"and-bad-side", &And{L: &Col{Idx: 0}, R: &Neg{E: &Col{Idx: 1}}}},
	}
	for _, c := range cases {
		if _, ok := CompileVec(c.e); ok {
			t.Errorf("%s: CompileVec accepted a non-vectorizable shape", c.name)
		}
	}
}

// TestCompileVecConstFold pins const-const comparison folding.
func TestCompileVecConstFold(t *testing.T) {
	for _, c := range []struct {
		op   CmpOp
		l, r rel.Value
		want bool
	}{
		{Lt, rel.Int(1), rel.Float(1.5), true},
		{Eq, rel.String("a"), rel.String("b"), false},
		{Ne, rel.Null(), rel.Int(1), false},                       // NULL rejects every comparison
		{Eq, rel.Float(math.NaN()), rel.Float(math.NaN()), false}, // NaN matches nothing
	} {
		vp, ok := CompileVec(&Cmp{Op: c.op, L: &Const{V: c.l}, R: &Const{V: c.r}})
		if !ok {
			t.Fatalf("const-const did not compile")
		}
		if _, isConst := vp.root.(vecConst); !isConst {
			t.Fatalf("const-const comparison did not fold: %T", vp.root)
		}
		pass := make([]bool, 1)
		r := rel.NewRelation(rel.Schema{{Name: "x", Type: rel.KInt}})
		r.Append(rel.Int(0))
		vp.EvalCols(rel.ToColumns(r.Schema, r.Tuples), 0, 1, pass)
		if pass[0] != c.want {
			t.Fatalf("%v %v %v: folded verdict %v, want %v", c.l, c.op, c.r, pass[0], c.want)
		}
	}
}
