package workload

import (
	"testing"

	"iolap/internal/core"
	"iolap/internal/exec"
	"iolap/internal/plan"
	"iolap/internal/rel"
)

func TestTPCHGeneratorShape(t *testing.T) {
	w := TPCH(TPCHScale{Fact: 1000, Seed: 1})
	for _, name := range []string{"lineorder", "part", "supplier", "customer", "partsupp", "nation", "region"} {
		r, ok := w.Tables[name]
		if !ok || r.Len() == 0 {
			t.Fatalf("table %s missing or empty", name)
		}
	}
	if got := w.Tables["lineorder"].Len(); got != 1000 {
		t.Errorf("fact rows = %d, want 1000", got)
	}
	if got := w.Tables["nation"].Len(); got != 25 {
		t.Errorf("nations = %d", got)
	}
	if got := w.Tables["region"].Len(); got != 5 {
		t.Errorf("regions = %d", got)
	}
	// Deterministic in the seed.
	w2 := TPCH(TPCHScale{Fact: 1000, Seed: 1})
	if !rel.EqualBag(w.Tables["lineorder"], w2.Tables["lineorder"], 0) {
		t.Error("generator must be deterministic")
	}
	w3 := TPCH(TPCHScale{Fact: 1000, Seed: 2})
	if rel.EqualBag(w.Tables["lineorder"], w3.Tables["lineorder"], 0) {
		t.Error("different seeds should differ")
	}
}

func TestConvivaGeneratorShape(t *testing.T) {
	w := Conviva(ConvivaScale{Sessions: 800, Seed: 1})
	r := w.Tables["conviva_sessions"]
	if r.Len() != 800 {
		t.Fatalf("sessions = %d", r.Len())
	}
	// The SBI effect must be present: sessions with above-average
	// buffering should have lower average play time.
	btIdx := r.Schema.MustResolve("", "buffer_time")
	ptIdx := r.Schema.MustResolve("", "play_time")
	var btSum float64
	for _, tp := range r.Tuples {
		btSum += tp.Vals[btIdx].Float()
	}
	avgBT := btSum / float64(r.Len())
	var slowPT, fastPT, slowN, fastN float64
	for _, tp := range r.Tuples {
		if tp.Vals[btIdx].Float() > avgBT {
			slowPT += tp.Vals[ptIdx].Float()
			slowN++
		} else {
			fastPT += tp.Vals[ptIdx].Float()
			fastN++
		}
	}
	if slowPT/slowN >= fastPT/fastN {
		t.Errorf("SBI effect missing: slow avg %v >= fast avg %v", slowPT/slowN, fastPT/fastN)
	}
}

func TestAllQueriesPlan(t *testing.T) {
	for _, w := range []*Workload{TPCH(TPCHScale{Fact: 400, Seed: 3}), Conviva(ConvivaScale{Sessions: 300, Seed: 3})} {
		for _, q := range w.Queries {
			node, _, err := w.Plan(q)
			if err != nil {
				t.Errorf("%s/%s: %v", w.Name, q.Name, err)
				continue
			}
			if node == nil {
				t.Errorf("%s/%s: nil plan", w.Name, q.Name)
			}
		}
	}
}

// TestQ5JoinsFactTableFirst checks the shape the planner's star rule gives
// TPC-H Q5: customer and supplier are both direct dimensions of lineorder
// (c_custkey = o_custkey, l_suppkey = s_suppkey), so their many-to-many
// c_nationkey = s_nationkey must not be joined below the fact table.
func TestQ5JoinsFactTableFirst(t *testing.T) {
	w := TPCH(TPCHScale{Fact: 300, Seed: 1})
	q, _ := w.Query("Q5")
	root, _, err := w.Plan(q)
	if err != nil {
		t.Fatal(err)
	}
	scanned := func(n plan.Node) (streamed bool, tables map[string]bool) {
		tables = map[string]bool{}
		plan.Walk(n, func(m plan.Node) {
			if s, ok := m.(*plan.Scan); ok {
				tables[s.Table] = true
				streamed = streamed || s.Streamed
			}
		})
		return streamed, tables
	}
	joins := 0
	plan.Walk(root, func(n plan.Node) {
		j, ok := n.(*plan.Join)
		if !ok {
			return
		}
		joins++
		lStreamed, lTables := scanned(j.L)
		rStreamed, rTables := scanned(j.R)
		_, lScan := j.L.(*plan.Scan)
		_, rScan := j.R.(*plan.Scan)
		if lScan && rScan && !lStreamed && !rStreamed {
			t.Errorf("first join %s has no streamed input", j.Describe())
		}
		dim := func(tables map[string]bool) bool { return tables["customer"] || tables["supplier"] }
		if !lStreamed && !rStreamed && dim(lTables) && dim(rTables) {
			t.Errorf("%s joins two dimensions of lineorder below the fact table", j.Describe())
		}
	})
	if joins != 4 {
		t.Errorf("Q5 has %d joins, want 4", joins)
	}
}

func TestAllQueriesRunOnBaseline(t *testing.T) {
	for _, w := range []*Workload{TPCH(TPCHScale{Fact: 600, Seed: 5}), Conviva(ConvivaScale{Sessions: 500, Seed: 5})} {
		db := w.DB()
		for _, q := range w.Queries {
			node, pp, err := w.Plan(q)
			if err != nil {
				t.Fatalf("%s/%s plan: %v", w.Name, q.Name, err)
			}
			out, err := exec.Run(node, db)
			if err != nil {
				t.Errorf("%s/%s exec: %v", w.Name, q.Name, err)
				continue
			}
			out = pp.Apply(out)
			if out.Len() == 0 && q.Name != "Q20" {
				// Q20's triple filter can legitimately be empty at tiny
				// scale; everything else must produce rows.
				t.Errorf("%s/%s: empty result at test scale", w.Name, q.Name)
			}
		}
	}
}

// oracleAt evaluates Q(D_i, m_i) exactly (the Theorem 1 reference).
func oracleAt(t *testing.T, node plan.Node, db *exec.DB, stream string, seen int) *rel.Relation {
	t.Helper()
	src, _ := db.Get(stream)
	mi := 1.0
	if seen > 0 {
		mi = float64(src.Len()) / float64(seen)
	}
	part := rel.NewRelation(src.Schema)
	for _, tp := range src.Tuples[:seen] {
		part.AppendMult(mi*tp.Mult, tp.Vals...)
	}
	odb := exec.NewDB()
	for _, name := range db.Tables() {
		r, _ := db.Get(name)
		odb.Put(name, r)
	}
	odb.Put(stream, part)
	out, err := exec.Run(node, odb)
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	return out
}

// TestTheorem1OnWorkloads is the heavyweight end-to-end check: every TPC-H
// and Conviva query, streamed through the iOLAP engine, must deliver at
// every batch exactly Q(D_i, m_i).
func TestTheorem1OnWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("long test")
	}
	cases := []struct {
		w    *Workload
		fact int
	}{
		{TPCH(TPCHScale{Fact: 600, Seed: 8}), 600},
		{Conviva(ConvivaScale{Sessions: 500, Seed: 8}), 500},
	}
	for _, c := range cases {
		db := c.w.DB()
		for _, q := range c.w.Queries {
			q := q
			t.Run(c.w.Name+"/"+q.Name, func(t *testing.T) {
				node, _, err := c.w.Plan(q)
				if err != nil {
					t.Fatal(err)
				}
				eng, err := core.NewEngine(node, db, core.Options{
					Batches: 5, Trials: 25, Seed: 21,
				})
				if err != nil {
					t.Fatal(err)
				}
				if eng.Nested() != q.Nested {
					t.Errorf("nested classification = %v, want %v", eng.Nested(), q.Nested)
				}
				src, _ := db.Get(q.Stream)
				seen := 0
				batchStart := 0
				for !eng.Done() {
					u, err := eng.Step()
					if err != nil {
						t.Fatalf("batch %d: %v", seen, err)
					}
					// Engine uses contiguous blocks of the source.
					batchStart++
					seen = batchStart * src.Len() / eng.Batches()
					want := oracleAt(t, node, db, q.Stream, seen)
					if !rel.EqualBag(u.Result, want, 1e-6) {
						t.Fatalf("batch %d diverges from Q(D_i, m_i)\ngot (%d rows):\n%s\nwant (%d rows):\n%s",
							u.Batch, u.Result.Len(), clip(u.Result.String()), want.Len(), clip(want.String()))
					}
				}
			})
		}
	}
}

func clip(s string) string {
	if len(s) > 1500 {
		return s[:1500] + "\n...(clipped)"
	}
	return s
}

func TestQueryLookup(t *testing.T) {
	w := TPCH(TPCHScale{Fact: 100, Seed: 1})
	if _, ok := w.Query("Q17"); !ok {
		t.Error("Q17 missing")
	}
	if _, ok := w.Query("Q99"); ok {
		t.Error("Q99 should not exist")
	}
}

func TestCatalogStreamsSelectedTable(t *testing.T) {
	w := TPCH(TPCHScale{Fact: 100, Seed: 1})
	cat := w.Catalog("partsupp")
	if !cat.Streamed("partsupp") {
		t.Error("partsupp should stream")
	}
	if cat.Streamed("lineorder") {
		t.Error("lineorder should not stream in Q11's catalog")
	}
}
