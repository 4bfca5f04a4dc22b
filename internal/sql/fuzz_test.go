package sql_test

import (
	"fmt"
	"testing"

	"iolap/internal/exec"
	"iolap/internal/plan"
	"iolap/internal/rel"
	"iolap/internal/sql"
	"iolap/internal/workload"
)

// FuzzPlanQuery feeds arbitrary text through sql.PlanQuery — the engine's one
// entry from SQL text to a plan, and the only surface that parses input a
// remote session supplies. Any input may be rejected with an error; none may
// panic or hang. A plan that does come back must describe itself, and
// exec.Run evaluates it over the workload's 40-row tables, so SQL text the
// planner accepts but the evaluator panics on fails the fuzz. The seeds are
// the 22 workload queries (the ones testdata/plans pins), each against its
// own workload's catalog and registries, and the conjunct-placement shapes
// of the core execution lattice (pushdownShapes), against the Conviva side,
// whose database also holds the lattice's sessions, cdns and tags tables.
func FuzzPlanQuery(f *testing.F) {
	wls := []*workload.Workload{
		workload.TPCH(workload.TPCHScale{Fact: 40, Seed: 1}),
		workload.Conviva(workload.ConvivaScale{Sessions: 40, Seed: 1}),
	}
	dbs := []*exec.DB{wls[0].DB(), wls[1].DB()}
	addLatticeTables(dbs[1])
	seeds := 0
	for wi, w := range wls {
		for _, q := range w.Queries {
			f.Add(q.SQL, q.Stream, wi == 1)
			seeds++
		}
	}
	for _, q := range pushdownShapes {
		f.Add(q, "sessions", true)
		seeds++
	}
	if seeds != 26 {
		f.Fatalf("seeded %d queries, want 26", seeds)
	}
	f.Fuzz(func(t *testing.T, text, stream string, conviva bool) {
		w, db := wls[0], dbs[0]
		if conviva {
			w, db = wls[1], dbs[1]
		}
		node, pp, err := sql.PlanQuery(text, sql.CatalogOf(db, nil, stream), w.Funcs, w.Aggs)
		if err != nil {
			return
		}
		if node == nil || pp == nil {
			t.Fatalf("PlanQuery(%q) returned no error and no plan", text)
		}
		if len(node.Schema()) == 0 {
			t.Fatalf("PlanQuery(%q): plan with an empty schema", text)
		}
		if rowEstimate(node, db) <= maxFuzzRows {
			// A UDF's panic comes back as an error; any other panic fails.
			exec.Run(node, db)
		}
	})
}

// pushdownShapes are the texts of the core execution lattice's
// conjunct-placement shapes: an OR over two tables with implied single-table
// disjuncts, a cross-table conjunct, a constant conjunct, and a correlated
// subquery over a filtered dimension with repeated keys.
var pushdownShapes = []string{
	`SELECT c.region, SUM(s.play_time) AS spt, COUNT(*) AS n FROM sessions s, cdns c
		WHERE s.cdn = c.cdn AND ((c.region = 'us-east' AND s.buffer_time > 30) OR (c.region = 'europe' AND s.play_time > 300))
		GROUP BY c.region`,
	`SELECT c.region, COUNT(*) AS n, SUM(s.play_time) AS spt FROM sessions s, cdns c
		WHERE s.cdn = c.cdn AND CASE WHEN c.region = 'europe' THEN s.play_time ELSE s.buffer_time END > 40
		GROUP BY c.region`,
	`SELECT t.tag, AVG(s.play_time) AS apt FROM sessions s, tags t
		WHERE s.cdn = t.cdn AND 2 > 1 AND t.tag <> 'ads' GROUP BY t.tag`,
	`SELECT t.tag, COUNT(*) AS n FROM sessions s, tags t
		WHERE s.cdn = t.cdn AND t.tag <> 'ads'
		AND s.play_time > (SELECT 0.004 * SUM(play_time) FROM sessions i WHERE i.cdn = t.cdn)
		GROUP BY t.tag`,
}

// addLatticeTables puts small copies of the core lattice's tables into db:
// 40 sessions over three cdns, their regions, and several tags per cdn.
func addLatticeTables(db *exec.DB) {
	sessions := rel.NewRelation(rel.Schema{{Name: "session_id", Type: rel.KString},
		{Name: "buffer_time", Type: rel.KFloat}, {Name: "play_time", Type: rel.KFloat}, {Name: "cdn", Type: rel.KString}})
	cdns := []string{"east", "west", "eu"}
	for i := range 40 {
		sessions.Append(rel.String(fmt.Sprintf("s%d", i)), rel.Float(float64(10+i%37)),
			rel.Float(float64(30+(i*97)%600)), rel.String(cdns[i%3]))
	}
	db.Put("sessions", sessions)
	regions := rel.NewRelation(rel.Schema{{Name: "cdn", Type: rel.KString}, {Name: "region", Type: rel.KString}})
	for _, r := range [][2]string{{"east", "us-east"}, {"west", "us-west"}, {"eu", "europe"}} {
		regions.Append(rel.String(r[0]), rel.String(r[1]))
	}
	db.Put("cdns", regions)
	tags := rel.NewRelation(rel.Schema{{Name: "cdn", Type: rel.KString}, {Name: "tag", Type: rel.KString}})
	for _, r := range [][2]string{{"east", "video"}, {"east", "live"}, {"west", "video"}, {"eu", "video"}, {"eu", "live"}, {"eu", "ads"}} {
		tags.Append(rel.String(r[0]), rel.String(r[1]))
	}
	db.Put("tags", tags)
}

// maxFuzzRows caps the rows a fuzzed plan is estimated to produce for it to
// be run: a cross join of five tables at this scale is a million rows, too
// slow for the fuzzer's hang detector.
const maxFuzzRows = 1 << 16

// rowEstimate estimates the most rows an operator of the plan produces over
// db: a cross join multiplies its inputs, an equi-join keeps the larger,
// and every other operator adds its inputs.
func rowEstimate(n plan.Node, db *exec.DB) int {
	if s, ok := n.(*plan.Scan); ok {
		r, _ := db.Get(s.Table)
		return r.Len()
	}
	est := 0
	for i, c := range n.Children() {
		e := rowEstimate(c, db)
		switch j, ok := n.(*plan.Join); {
		case ok && i > 0 && len(j.LKeys) == 0:
			est *= e
		case ok:
			est = max(est, e)
		default:
			est += e
		}
		est = min(est, maxFuzzRows+1)
	}
	return est
}
