// Package workload provides the two evaluation workloads of Section 8 at
// laptop scale:
//
//   - a TPC-H-like synthetic dataset denormalised onto an SSB-style schema
//     (lineitem ⋈ orders = lineorder, as the paper does), with the paper's
//     query selection: Q1, Q3, Q5, Q6, Q7 (flat SPJA) and Q11, Q17, Q18,
//     Q20, Q22 (nested aggregate subqueries);
//   - a Conviva-like video-session trace (the real 17 TB trace is
//     proprietary; the generator reproduces the columns and distributions
//     the paper's example queries use) with queries C1–C12 in the paper's
//     mix: flat SPJA (C3, C5, C11, C12), nested subqueries and HAVING
//     (C1, C2, C4, C6–C10), UDFs (C6, C7) and UDAFs (C8, C9, C10).
//
// All generators are deterministic in the seed and emit rows in random
// order (block-wise randomness holds, per Section 2).
package workload

import (
	"fmt"
	"math"
	"math/rand"

	"iolap/internal/agg"
	"iolap/internal/exec"
	"iolap/internal/expr"
	"iolap/internal/plan"
	"iolap/internal/rel"
	"iolap/internal/sql"
)

// Query is one benchmark query.
type Query struct {
	// Name is the paper's identifier (Q1..Q22, C1..C12).
	Name string
	// SQL is the query text in this repository's dialect. Deviations from
	// the official TPC-H text (denormalised schema, dropped ORDER BY /
	// LIMIT / NOT EXISTS) are documented in DESIGN.md.
	SQL string
	// Stream names the table processed online (the fact or largest table,
	// Section 8).
	Stream string
	// Nested marks queries with nested aggregate subqueries — the class
	// on which classical delta processing degrades.
	Nested bool
}

// Workload bundles a dataset with its query set and function registries.
type Workload struct {
	Name    string
	Tables  map[string]*rel.Relation
	Queries []Query
	Funcs   *expr.Registry
	Aggs    *agg.Registry
}

// DB materialises the workload tables as an executor database.
func (w *Workload) DB() *exec.DB {
	db := exec.NewDB()
	for name, r := range w.Tables {
		db.Put(name, r)
	}
	return db
}

// Catalog builds a SQL catalog streaming exactly the given table.
func (w *Workload) Catalog(streamed string) *sql.Catalog {
	return sql.CatalogOf(w.DB(), nil, streamed)
}

// Query returns the named query.
func (w *Workload) Query(name string) (Query, bool) {
	for _, q := range w.Queries {
		if q.Name == name {
			return q, true
		}
	}
	return Query{}, false
}

// Plan parses and plans one workload query.
func (w *Workload) Plan(q Query) (plan.Node, *sql.PostProcess, error) {
	node, pp, err := sql.PlanQuery(q.SQL, w.Catalog(q.Stream), w.Funcs, w.Aggs)
	if err != nil {
		return nil, nil, fmt.Errorf("workload %s/%s: %w", w.Name, q.Name, err)
	}
	return node, pp, nil
}

// shuffleRel permutes rows deterministically (block randomness, Section 2).
func shuffleRel(r *rel.Relation, rng *rand.Rand) {
	rng.Shuffle(len(r.Tuples), func(i, j int) {
		r.Tuples[i], r.Tuples[j] = r.Tuples[j], r.Tuples[i]
	})
}

func round1(x float64) float64 { return math.Round(x*10) / 10 }
