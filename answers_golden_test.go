package iolap

import (
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"iolap/internal/exec"
	"iolap/internal/rel"
	"iolap/internal/workload"
)

var updateAnswers = flag.Bool("update", false, "regenerate testdata/answers.golden")

const answersGoldenPath = "testdata/answers.golden"

// TestWorkloadAnswersGolden pins the exact answer of every built-in workload
// query: exec.Run over the whole data, each row rendered with its floats as
// math.Float64bits, the rows sorted (a query without ORDER BY has no row
// order), and the lot folded into one word. The Theorem-1 suites compare the
// engine with exec on the same plan, so a planner rewrite that changes an
// answer passes them; this file does not share the planner's output with
// anything. The scale is one where every query, Q17 and Q20 included,
// returns rows.
func TestWorkloadAnswersGolden(t *testing.T) {
	var b strings.Builder
	b.WriteString("# Exact answers pinned by TestWorkloadAnswersGolden: <workload>/<query> <rows> <fnv64a over the sorted rows, floats as Float64bits>.\n" +
		"# Regenerate only when an answer changes on purpose: go test . -run TestWorkloadAnswersGolden -update\n")
	for _, w := range []*workload.Workload{
		workload.TPCH(workload.TPCHScale{Fact: 4000, Seed: 42}),
		workload.Conviva(workload.ConvivaScale{Sessions: 3000, Seed: 42}),
	} {
		db := w.DB()
		for _, q := range w.Queries {
			node, pp, err := w.Plan(q)
			if err != nil {
				t.Fatal(err)
			}
			out, err := exec.Run(node, db)
			if err != nil {
				t.Fatalf("%s/%s: %v", w.Name, q.Name, err)
			}
			out = pp.Apply(out)
			if out.Len() == 0 {
				t.Errorf("%s/%s: no rows at this scale", w.Name, q.Name)
			}
			fmt.Fprintf(&b, "%s/%s %d %016x\n", w.Name, q.Name, out.Len(), answerDigest(out))
		}
	}
	if *updateAnswers {
		if err := os.WriteFile(answersGoldenPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(filepath.Clean(answersGoldenPath))
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("answers changed\nwant:\n%s\ngot:\n%s", want, got)
	}
}

// answerDigest folds a relation's rows, sorted, into one word; a float cell
// contributes its bits, so an answer that moves by one ulp changes the word.
func answerDigest(r *rel.Relation) uint64 {
	rows := make([]string, r.Len())
	for i, tp := range r.Tuples {
		var b strings.Builder
		for _, v := range tp.Vals {
			switch v.Kind() {
			case rel.KFloat:
				fmt.Fprintf(&b, "f%016x|", math.Float64bits(v.Float()))
			case rel.KInt:
				fmt.Fprintf(&b, "i%d|", v.Int())
			default:
				fmt.Fprintf(&b, "%d:%q|", v.Kind(), v.String())
			}
		}
		fmt.Fprintf(&b, "m%v", tp.Mult)
		rows[i] = b.String()
	}
	sort.Strings(rows)
	h := fnv.New64a()
	for _, row := range rows {
		h.Write([]byte(row + "\n"))
	}
	return h.Sum64()
}
