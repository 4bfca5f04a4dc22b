package iolap

import (
	"iolap/internal/workload"
)

// BenchQuery is one benchmark query from the paper's evaluation workloads.
type BenchQuery struct {
	// Name is the paper's identifier (Q1..Q22, C1..C12).
	Name string
	// SQL is the query text.
	SQL string
	// Stream is the table processed online for this query.
	Stream string
	// Nested marks queries with nested aggregate subqueries.
	Nested bool
}

func fromWorkload(w *workload.Workload) (*Session, []BenchQuery) {
	s := NewSession()
	s.funcs = w.Funcs
	s.aggs = w.Aggs
	for name, r := range w.Tables {
		s.tables[name] = r
		s.streamed[name] = false
	}
	queries := make([]BenchQuery, len(w.Queries))
	for i, q := range w.Queries {
		queries[i] = BenchQuery{Name: q.Name, SQL: q.SQL, Stream: q.Stream, Nested: q.Nested}
	}
	return s, queries
}

// NewTPCHSession builds a session preloaded with the synthetic TPC-H-like
// benchmark dataset (denormalised lineorder fact plus dimensions) and
// returns the paper's query selection Q1,Q3,Q5,Q6,Q7,Q11,Q17,Q18,Q20,Q22.
// Pass each query's Stream through Options.Stream when running it.
func NewTPCHSession(factRows int, seed int64) (*Session, []BenchQuery) {
	return fromWorkload(workload.TPCH(workload.TPCHScale{Fact: factRows, Seed: seed}))
}

// NewConvivaSession builds a session preloaded with the synthetic
// Conviva-like video-session trace and queries C1-C12 (including the UDFs
// ENGAGEMENT and QUALITYSCORE and the UDAFs GEOMEAN, HARMONIC and RMS).
func NewConvivaSession(sessions int, seed int64) (*Session, []BenchQuery) {
	return fromWorkload(workload.Conviva(workload.ConvivaScale{Sessions: sessions, Seed: seed}))
}
