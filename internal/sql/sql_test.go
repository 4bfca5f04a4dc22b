package sql

import (
	"math"
	"strings"
	"testing"

	"iolap/internal/agg"
	"iolap/internal/exec"
	"iolap/internal/expr"
	"iolap/internal/plan"
	"iolap/internal/rel"
)

func testCatalog() *Catalog {
	cat := NewCatalog()
	cat.AddTable("sessions", rel.Schema{
		{Name: "session_id", Type: rel.KString},
		{Name: "buffer_time", Type: rel.KFloat},
		{Name: "play_time", Type: rel.KFloat},
		{Name: "cdn", Type: rel.KString},
	}, true)
	cat.AddTable("cdns", rel.Schema{
		{Name: "cdn", Type: rel.KString},
		{Name: "region", Type: rel.KString},
	}, false)
	return cat
}

func testPlanner() *Planner {
	return NewPlanner(testCatalog(), expr.NewRegistry(), agg.NewRegistry())
}

func testDB() *exec.DB {
	db := exec.NewDB()
	sessions := rel.NewRelation(rel.Schema{
		{Name: "session_id", Type: rel.KString},
		{Name: "buffer_time", Type: rel.KFloat},
		{Name: "play_time", Type: rel.KFloat},
		{Name: "cdn", Type: rel.KString},
	})
	add := func(id string, bt, pt float64, cdn string) {
		sessions.Append(rel.String(id), rel.Float(bt), rel.Float(pt), rel.String(cdn))
	}
	add("id1", 36, 238, "east")
	add("id2", 58, 135, "west")
	add("id3", 17, 617, "east")
	add("id4", 56, 194, "west")
	add("id5", 19, 308, "east")
	add("id6", 26, 319, "west")
	db.Put("sessions", sessions)
	cdns := rel.NewRelation(rel.Schema{
		{Name: "cdn", Type: rel.KString},
		{Name: "region", Type: rel.KString},
	})
	cdns.Append(rel.String("east"), rel.String("us-east"))
	cdns.Append(rel.String("west"), rel.String("us-west"))
	db.Put("cdns", cdns)
	return db
}

func planAndRun(t *testing.T, query string) *rel.Relation {
	t.Helper()
	stmt, err := Parse(query)
	if err != nil {
		t.Fatalf("parse %q: %v", query, err)
	}
	node, pp, err := testPlanner().Plan(stmt)
	if err != nil {
		t.Fatalf("plan %q: %v", query, err)
	}
	out, err := exec.Run(node, testDB())
	if err != nil {
		t.Fatalf("exec %q: %v", query, err)
	}
	return pp.Apply(out)
}

// ---------------------------------------------------------------------------
// Lexer

func TestLexBasics(t *testing.T) {
	toks, err := Lex("SELECT a.b, 'it''s', 1.5e3 FROM t -- comment\nWHERE x >= 2")
	if err != nil {
		t.Fatal(err)
	}
	var kinds []TokKind
	var texts []string
	for _, tok := range toks {
		kinds = append(kinds, tok.Kind)
		texts = append(texts, tok.Text)
	}
	joined := strings.Join(texts, "|")
	for _, want := range []string{"SELECT", "a", ".", "b", "it's", "1.5e3", "FROM", "WHERE", ">="} {
		if !strings.Contains(joined, want) {
			t.Errorf("lex output missing %q: %s", want, joined)
		}
	}
	if kinds[len(kinds)-1] != TokEOF {
		t.Error("missing EOF token")
	}
}

func TestLexErrors(t *testing.T) {
	if _, err := Lex("SELECT 'unterminated"); err == nil {
		t.Error("unterminated string must error")
	}
	if _, err := Lex("SELECT @"); err == nil {
		t.Error("unexpected character must error")
	}
}

// ---------------------------------------------------------------------------
// Parser

func TestParseSBI(t *testing.T) {
	stmt, err := Parse(`SELECT AVG(play_time) FROM sessions
		WHERE buffer_time > (SELECT AVG(buffer_time) FROM sessions)`)
	if err != nil {
		t.Fatal(err)
	}
	if len(stmt.Items) != 1 || len(stmt.From) != 1 {
		t.Fatalf("stmt shape wrong: %+v", stmt)
	}
	b, ok := stmt.Where.(*BinOp)
	if !ok || b.Op != ">" {
		t.Fatalf("where shape wrong: %T", stmt.Where)
	}
	if _, ok := b.R.(*Subquery); !ok {
		t.Error("right side should be a subquery")
	}
}

func TestParseGroupByHavingOrder(t *testing.T) {
	stmt, err := Parse(`SELECT cdn, COUNT(*) AS n, SUM(play_time) total
		FROM sessions GROUP BY cdn HAVING COUNT(*) > 1
		ORDER BY n DESC, cdn LIMIT 5`)
	if err != nil {
		t.Fatal(err)
	}
	if len(stmt.GroupBy) != 1 || stmt.Having == nil || stmt.Limit != 5 {
		t.Fatalf("clause parsing wrong: %+v", stmt)
	}
	if len(stmt.OrderBy) != 2 || !stmt.OrderBy[0].Desc || stmt.OrderBy[1].Desc {
		t.Fatalf("order by wrong: %+v", stmt.OrderBy)
	}
	if stmt.Items[1].Alias != "n" || stmt.Items[2].Alias != "total" {
		t.Error("aliases (AS and bare) not parsed")
	}
}

func TestParseJoinOn(t *testing.T) {
	stmt, err := Parse(`SELECT s.cdn FROM sessions s JOIN cdns c ON s.cdn = c.cdn WHERE c.region = 'us-east'`)
	if err != nil {
		t.Fatal(err)
	}
	if len(stmt.From) != 2 {
		t.Fatalf("JOIN should flatten into FROM: %+v", stmt.From)
	}
	conjs := splitConjuncts(stmt.Where)
	if len(conjs) != 2 {
		t.Fatalf("ON should desugar to WHERE: %d conjuncts", len(conjs))
	}
}

func TestParseExpressions(t *testing.T) {
	stmt, err := Parse(`SELECT CASE WHEN a > 1 THEN 'x' ELSE 'y' END,
		b BETWEEN 1 AND 2, c IN (1,2,3), d NOT IN (4), -e, NOT f,
		g LIKE 'ab%', ABS(h) FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	if len(stmt.Items) != 8 {
		t.Fatalf("items = %d", len(stmt.Items))
	}
	if _, ok := stmt.Items[0].Expr.(*CaseExpr); !ok {
		t.Error("CASE not parsed")
	}
	if in, ok := stmt.Items[3].Expr.(*InExpr); !ok || !in.Inv {
		t.Error("NOT IN not parsed")
	}
	if _, ok := stmt.Items[6].Expr.(*LikeExpr); !ok {
		t.Error("LIKE not parsed")
	}
}

func TestParsePrecedence(t *testing.T) {
	stmt, err := Parse("SELECT a + b * c FROM t")
	if err != nil {
		t.Fatal(err)
	}
	top := stmt.Items[0].Expr.(*BinOp)
	if top.Op != "+" {
		t.Fatalf("precedence wrong: top op %s", top.Op)
	}
	if r := top.R.(*BinOp); r.Op != "*" {
		t.Error("* must bind tighter than +")
	}
	stmt, _ = Parse("SELECT 1 FROM t WHERE a = 1 OR b = 2 AND c = 3")
	or := stmt.Where.(*BinOp)
	if or.Op != "OR" {
		t.Error("AND must bind tighter than OR")
	}
}

func TestParseUnionAll(t *testing.T) {
	stmt, err := Parse("SELECT a FROM t UNION ALL SELECT a FROM u")
	if err != nil {
		t.Fatal(err)
	}
	if stmt.UnionAll == nil {
		t.Error("UNION ALL chain missing")
	}
	if _, err := Parse("SELECT a FROM t UNION SELECT a FROM u"); err == nil {
		t.Error("bare UNION (dedup) must be rejected")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELECT",
		"SELECT a",
		"SELECT a FROM",
		"SELECT a FROM t WHERE",
		"SELECT a FROM t GROUP",
		"SELECT a FROM (SELECT b FROM u)", // derived table needs alias
		"SELECT a FROM t LIMIT x",
		"SELECT CASE END FROM t",
		"FROM t SELECT a",
		"SELECT a FROM t extra garbage (",
	}
	for _, q := range bad {
		if _, err := Parse(q); err == nil {
			t.Errorf("expected parse error for %q", q)
		}
	}
}

// ---------------------------------------------------------------------------
// Planner + executor end-to-end

func TestPlanSimpleProjection(t *testing.T) {
	out := planAndRun(t, "SELECT session_id, play_time / 60 AS minutes FROM sessions WHERE buffer_time < 20")
	if out.Len() != 2 {
		t.Fatalf("rows = %d, want 2", out.Len())
	}
	if out.Schema[1].Name != "minutes" {
		t.Errorf("alias lost: %v", out.Schema)
	}
}

func TestPlanAggregate(t *testing.T) {
	out := planAndRun(t, "SELECT COUNT(*) AS n, AVG(buffer_time) AS abt, SUM(play_time) AS spt FROM sessions")
	if out.Len() != 1 {
		t.Fatal("expected one row")
	}
	v := out.Tuples[0].Vals
	if v[0].Float() != 6 {
		t.Errorf("count = %v", v[0])
	}
	if math.Abs(v[1].Float()-35.333333333333336) > 1e-9 {
		t.Errorf("avg = %v", v[1])
	}
	if v[2].Float() != 1811 {
		t.Errorf("sum = %v", v[2])
	}
}

func TestPlanGroupByHaving(t *testing.T) {
	out := planAndRun(t, `SELECT cdn, AVG(play_time) AS apt FROM sessions
		GROUP BY cdn HAVING AVG(play_time) > 300 ORDER BY cdn`)
	if out.Len() != 1 {
		t.Fatalf("rows = %d, want 1 (east avg=387.67, west avg=216)", out.Len())
	}
	if out.Tuples[0].Vals[0].Str() != "east" {
		t.Errorf("group = %v", out.Tuples[0].Vals[0])
	}
}

func TestPlanJoin(t *testing.T) {
	out := planAndRun(t, `SELECT s.session_id, c.region FROM sessions s, cdns c
		WHERE s.cdn = c.cdn AND c.region = 'us-west'`)
	if out.Len() != 3 {
		t.Fatalf("rows = %d, want 3", out.Len())
	}
}

func TestPlanExplicitJoin(t *testing.T) {
	out := planAndRun(t, `SELECT s.session_id FROM sessions s JOIN cdns c ON s.cdn = c.cdn`)
	if out.Len() != 6 {
		t.Fatalf("rows = %d, want 6", out.Len())
	}
}

// TestPlanSBIScalarSubquery compiles the paper's Example 1 from SQL and
// verifies both the plan shape (Figure 2(a): join + select above the
// subquery aggregate) and the result.
func TestPlanSBIScalarSubquery(t *testing.T) {
	stmt, err := Parse(`SELECT AVG(play_time) AS apt FROM sessions
		WHERE buffer_time > (SELECT AVG(buffer_time) FROM sessions)`)
	if err != nil {
		t.Fatal(err)
	}
	node, _, err := testPlanner().Plan(stmt)
	if err != nil {
		t.Fatal(err)
	}
	fp := plan.Fingerprint(node)
	if !strings.Contains(fp, "Join(cross)") {
		t.Errorf("scalar subquery should compile to a cross join: %s", fp)
	}
	out, err := exec.Run(node, testDB())
	if err != nil {
		t.Fatal(err)
	}
	want := (238.0 + 135 + 194) / 3 // sessions with buffer_time > 35.33
	if got := out.Tuples[0].Vals[0].Float(); math.Abs(got-want) > 1e-9 {
		t.Errorf("SBI = %v, want %v", got, want)
	}
}

func TestPlanCorrelatedSubquery(t *testing.T) {
	// Per-CDN version of SBI: compare each session against its own CDN's
	// average buffer time (decorrelates into a group-by join).
	out := planAndRun(t, `SELECT COUNT(*) AS n FROM sessions s
		WHERE s.buffer_time > (SELECT AVG(buffer_time) FROM sessions i WHERE i.cdn = s.cdn)`)
	// east avg bt = (36+17+19)/3 = 24 -> id1 (36) above; west avg =
	// (58+56+26)/3 = 46.67 -> id2 (58), id4 (56) above. Total 3.
	if got := out.Tuples[0].Vals[0].Float(); got != 3 {
		t.Errorf("correlated count = %v, want 3", got)
	}
}

func TestPlanCorrelatedWithArithmetic(t *testing.T) {
	// Q17 shape: threshold is an expression over the aggregate.
	out := planAndRun(t, `SELECT COUNT(*) AS n FROM sessions s
		WHERE s.buffer_time > (SELECT 2 * AVG(buffer_time) FROM sessions i WHERE i.cdn = s.cdn)`)
	// east 2*24=48 -> none; west 2*46.67=93.3 -> none. 0 rows... the
	// aggregate yields an empty outer result (count over empty = no rows
	// in group-by-less aggregate? COUNT over zero input rows = 0).
	if out.Len() != 1 {
		t.Fatalf("global COUNT must still produce a row-less or single-row result; got %d", out.Len())
	}
}

func TestPlanInSubquery(t *testing.T) {
	out := planAndRun(t, `SELECT COUNT(*) AS n FROM sessions
		WHERE cdn IN (SELECT cdn FROM cdns WHERE region = 'us-east')`)
	if got := out.Tuples[0].Vals[0].Float(); got != 3 {
		t.Errorf("IN-subquery count = %v, want 3", got)
	}
}

func TestPlanInSubqueryWithHaving(t *testing.T) {
	// Q18 shape: IN over a grouped HAVING subquery.
	out := planAndRun(t, `SELECT session_id FROM sessions
		WHERE cdn IN (SELECT cdn FROM sessions GROUP BY cdn HAVING SUM(play_time) > 1000)
		ORDER BY session_id`)
	// east sum = 238+617+308 = 1163 > 1000; west = 135+194+319 = 648.
	if out.Len() != 3 {
		t.Fatalf("rows = %d, want 3", out.Len())
	}
	if out.Tuples[0].Vals[0].Str() != "id1" {
		t.Errorf("order by lost: %v", out.Tuples[0].Vals[0])
	}
}

func TestPlanHavingScalarSubquery(t *testing.T) {
	// Q11 shape: HAVING compares a group aggregate against a global
	// scalar subquery.
	out := planAndRun(t, `SELECT cdn, SUM(play_time) AS spt FROM sessions
		GROUP BY cdn HAVING SUM(play_time) > (SELECT 0.5 * SUM(play_time) FROM sessions)`)
	// total = 1811; half = 905.5; east sum = 1163 passes, west 648 fails.
	if out.Len() != 1 || out.Tuples[0].Vals[0].Str() != "east" {
		t.Fatalf("having-subquery result wrong: %v", out)
	}
}

func TestPlanUnionAll(t *testing.T) {
	out := planAndRun(t, `SELECT session_id FROM sessions WHERE cdn = 'east'
		UNION ALL SELECT session_id FROM sessions WHERE buffer_time > 50`)
	if out.Len() != 5 { // 3 east + id2, id4
		t.Errorf("union rows = %d, want 5", out.Len())
	}
}

func TestPlanDerivedTable(t *testing.T) {
	out := planAndRun(t, `SELECT d.apt FROM
		(SELECT cdn, AVG(play_time) AS apt FROM sessions GROUP BY cdn) AS d
		WHERE d.apt > 300`)
	if out.Len() != 1 {
		t.Fatalf("derived table rows = %d, want 1", out.Len())
	}
}

func TestPlanScalarFunctionsAndCase(t *testing.T) {
	out := planAndRun(t, `SELECT session_id,
		CASE WHEN buffer_time > 50 THEN 'slow' ELSE 'ok' END AS label,
		ABS(buffer_time - 30) AS dist
		FROM sessions WHERE session_id LIKE 'id%' ORDER BY session_id`)
	if out.Len() != 6 {
		t.Fatalf("rows = %d", out.Len())
	}
	if out.Tuples[1].Vals[1].Str() != "slow" { // id2: 58 > 50
		t.Errorf("case label = %v", out.Tuples[1].Vals[1])
	}
	if out.Tuples[0].Vals[2].Float() != 6 { // id1: |36-30|
		t.Errorf("ABS = %v", out.Tuples[0].Vals[2])
	}
}

func TestPlanErrors(t *testing.T) {
	bad := []string{
		"SELECT nothere FROM sessions",
		"SELECT session_id FROM nosuchtable",
		"SELECT NOSUCHFUNC(buffer_time) FROM sessions",
		"SELECT session_id FROM sessions HAVING COUNT(*) > 1",
		"SELECT session_id FROM sessions WHERE cdn NOT IN (SELECT cdn FROM cdns)",
		"SELECT session_id FROM sessions ORDER BY buffer_time + 1",
		"SELECT AVG(AVG(buffer_time)) FROM sessions WHERE AVG(play_time) > 1",
	}
	for _, q := range bad {
		stmt, err := Parse(q)
		if err != nil {
			continue // parse-level rejection is fine too
		}
		if _, _, err := testPlanner().Plan(stmt); err == nil {
			t.Errorf("expected plan error for %q", q)
		}
	}
}

// TestPlanRejectsOperandKinds: each query planned before and then panicked
// in the evaluator (e.g. "expr: arithmetic on STRING and INT"), which a
// serving engine's scan goroutine cannot recover from. The planner now
// rejects an operand kind the runtime cannot take; NULL stays admitted.
func TestPlanRejectsOperandKinds(t *testing.T) {
	for _, q := range []string{
		`SELECT cdn + 1 AS x FROM sessions`,
		`SELECT -cdn AS x FROM sessions`,
		`SELECT session_id FROM sessions WHERE play_time LIKE '1%'`,
		`SELECT ABS(cdn) AS x FROM sessions`,
		`SELECT SQRT(cdn) AS x FROM sessions`,
		`SELECT ROUND(cdn) AS x FROM sessions`,
		`SELECT POW(cdn, 2) AS x FROM sessions`,
		`SELECT GREATEST(play_time, cdn) AS x FROM sessions`,
		`SELECT UPPER(play_time) AS x FROM sessions`,
		`SELECT LENGTH(play_time) AS x FROM sessions`,
		`SELECT SUBSTR(play_time, 1, 2) AS x FROM sessions`,
		`SELECT SUBSTR(cdn, 'a', 2) AS x FROM sessions`,
	} {
		t.Run(q, func(t *testing.T) {
			if _, _, err := PlanQuery(q, testCatalog(), expr.NewRegistry(), agg.NewRegistry()); err == nil {
				t.Fatal("planned; want an operand-kind error")
			}
		})
	}
	// Their well-kinded neighbours, and NULL operands, still plan and run.
	for _, q := range []string{
		`SELECT play_time + 1 AS x FROM sessions`,
		`SELECT -play_time AS x, NULL + 1 AS y, -NULL AS z FROM sessions`,
		`SELECT session_id FROM sessions WHERE cdn LIKE 'e%'`,
		`SELECT ROUND(play_time, 1) AS x, GREATEST(play_time, buffer_time, NULL) AS y FROM sessions`,
		`SELECT UPPER(cdn) AS x, LENGTH(NULL) AS y, SUBSTR(cdn, 1, 2) AS z, SUBSTR(cdn, NULL, 2) AS w FROM sessions`,
	} {
		if out := planAndRun(t, q); out.Len() == 0 {
			t.Errorf("%s: no rows", q)
		}
	}
}

func TestStreamedFlagFlowsFromCatalog(t *testing.T) {
	stmt, _ := Parse("SELECT COUNT(*) FROM sessions s, cdns c WHERE s.cdn = c.cdn")
	node, _, err := testPlanner().Plan(stmt)
	if err != nil {
		t.Fatal(err)
	}
	scans := plan.StreamedScans(node)
	if len(scans) != 1 || scans[0].Table != "sessions" {
		t.Errorf("streamed scans = %v", scans)
	}
}

func TestLikeCompiler(t *testing.T) {
	cases := []struct {
		pattern, s string
		want       bool
	}{
		{"abc", "abc", true},
		{"abc", "abd", false},
		{"ab%", "abc", true},
		{"%bc", "abc", true},
		{"a%c", "abc", true},
		{"a%c", "ac", true},
		{"a%x%c", "aXxYc", true},
		{"a%x%c", "ac", false},
		{"%", "anything", true},
	}
	for _, c := range cases {
		if got := compileLike(c.pattern)(c.s); got != c.want {
			t.Errorf("LIKE %q on %q = %v, want %v", c.pattern, c.s, got, c.want)
		}
	}
}

func TestPostProcessApply(t *testing.T) {
	r := rel.NewRelation(rel.Schema{{Name: "x", Type: rel.KInt}})
	r.Append(rel.Int(3))
	r.Append(rel.Int(1))
	r.Append(rel.Int(2))
	pp := &PostProcess{Keys: []OrderKey{{Col: 0}}, Limit: 2}
	out := pp.Apply(r)
	if out.Len() != 2 || out.Tuples[0].Vals[0].Int() != 1 {
		t.Errorf("post-process wrong: %v", out)
	}
	var nilPP *PostProcess
	if nilPP.Apply(r) != r {
		t.Error("nil post-process must be identity")
	}
}

func TestCountDistinct(t *testing.T) {
	out := planAndRun(t, "SELECT COUNT(DISTINCT buffer_time) AS d, COUNT(*) AS n FROM sessions")
	// All six buffer_time values are distinct in the fixture.
	if got := out.Tuples[0].Vals[0].Float(); got != 6 {
		t.Errorf("count distinct = %v, want 6", got)
	}
	out = planAndRun(t, "SELECT cdn, COUNT(DISTINCT play_time) AS d FROM sessions GROUP BY cdn ORDER BY cdn")
	if out.Len() != 2 || out.Tuples[0].Vals[1].Float() != 3 {
		t.Errorf("grouped count distinct wrong: %v", out)
	}
	// DISTINCT inside other aggregates is rejected.
	stmt, err := Parse("SELECT SUM(DISTINCT play_time) FROM sessions")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := testPlanner().Plan(stmt); err == nil {
		t.Error("SUM(DISTINCT) must be rejected")
	}
	// COUNT(DISTINCT) and COUNT(*) of the same column must not collide in
	// the aggregate-call dedup map.
	out = planAndRun(t, "SELECT COUNT(DISTINCT cdn) AS d, COUNT(cdn) AS n FROM sessions")
	if out.Tuples[0].Vals[0].Float() != 2 || out.Tuples[0].Vals[1].Float() != 6 {
		t.Errorf("distinct/plain collision: %v", out.Tuples[0].Vals)
	}
}

func TestPlannerSubqueryErrorPaths(t *testing.T) {
	bad := []string{
		// Scalar subquery with two output columns.
		`SELECT COUNT(*) FROM sessions WHERE buffer_time >
			(SELECT AVG(buffer_time), AVG(play_time) FROM sessions)`,
		// Correlated subquery with a non-equality correlation.
		`SELECT COUNT(*) FROM sessions s WHERE buffer_time >
			(SELECT AVG(buffer_time) FROM sessions i WHERE i.buffer_time > s.play_time)`,
		// Correlated subquery without an aggregate.
		`SELECT COUNT(*) FROM sessions s WHERE buffer_time >
			(SELECT play_time FROM sessions i WHERE i.cdn = s.cdn)`,
		// IN with an expression (not a bare column) on the left.
		`SELECT COUNT(*) FROM sessions WHERE buffer_time + 1 IN (SELECT buffer_time FROM sessions)`,
		// IN subquery with two columns.
		`SELECT COUNT(*) FROM sessions WHERE cdn IN (SELECT cdn, region FROM cdns)`,
		// Subquery used in an unsupported position (projection).
		`SELECT (SELECT AVG(buffer_time) FROM sessions) FROM sessions`,
		// HAVING subquery with two columns.
		`SELECT cdn, COUNT(*) FROM sessions GROUP BY cdn
			HAVING COUNT(*) > (SELECT buffer_time, play_time FROM sessions)`,
		// A scalar subquery probing a literal IN list.
		`SELECT session_id FROM sessions WHERE (SELECT COUNT(*) FROM sessions) IN (600, 601)`,
	}
	for _, q := range bad {
		stmt, err := Parse(q)
		if err != nil {
			continue
		}
		_, _, err = testPlanner().Plan(stmt)
		if err == nil {
			t.Errorf("expected plan error for %q", q)
		} else if strings.Contains(err.Error(), "internal") {
			t.Errorf("%q: user text reached an internal error: %v", q, err)
		}
	}
}

func TestPlanUncorrelatedSubqueryWithOwnFilter(t *testing.T) {
	// The subquery has its own WHERE: planned through the general
	// recursive path.
	out := planAndRun(t, `SELECT COUNT(*) AS n FROM sessions
		WHERE buffer_time > (SELECT AVG(buffer_time) FROM sessions WHERE cdn = 'east')`)
	// east avg bt = (36+17+19)/3 = 24; above: 36,58,56,26 -> 4.
	if got := out.Tuples[0].Vals[0].Float(); got != 4 {
		t.Errorf("count = %v, want 4", got)
	}
}

func TestPlanSubqueryOnLeftSideFlipsOperator(t *testing.T) {
	// (SELECT AVG..) < buffer_time  ==  buffer_time > (SELECT AVG..)
	a := planAndRun(t, `SELECT COUNT(*) AS n FROM sessions
		WHERE (SELECT AVG(buffer_time) FROM sessions) < buffer_time`)
	b := planAndRun(t, `SELECT COUNT(*) AS n FROM sessions
		WHERE buffer_time > (SELECT AVG(buffer_time) FROM sessions)`)
	if a.Tuples[0].Vals[0].Float() != b.Tuples[0].Vals[0].Float() {
		t.Errorf("flip mismatch: %v vs %v", a.Tuples[0].Vals[0], b.Tuples[0].Vals[0])
	}
}

// TestHavingSubqueryOnLeftSideMirrorsOperator: HAVING comparisons take the
// WHERE path, so a subquery on the left mirrors the operator there too.
func TestHavingSubqueryOnLeftSideMirrorsOperator(t *testing.T) {
	out := planAndRun(t, `SELECT cdn FROM sessions GROUP BY cdn
		HAVING (SELECT 0.5 * SUM(play_time) FROM sessions) < SUM(play_time)`)
	if out.Len() != 1 || out.Tuples[0].Vals[0].Str() != "east" {
		t.Fatalf("mirrored having-subquery result wrong: %v", out)
	}
}

// TestHavingSubqueryHasNoOuterScope: HAVING passes no scope to its scalar
// subqueries, so one that names the enclosing block is rejected.
func TestHavingSubqueryHasNoOuterScope(t *testing.T) {
	_, _, err := PlanQuery(`SELECT s.cdn FROM sessions s GROUP BY s.cdn
		HAVING SUM(s.play_time) > (SELECT SUM(play_time) FROM sessions i WHERE i.cdn = s.cdn)`,
		testCatalog(), expr.NewRegistry(), agg.NewRegistry())
	if err == nil {
		t.Fatal("correlated HAVING subquery planned; want an error")
	}
}

// TestDecorrelatedSubqueryPlan pins the GROUP BY form a correlated scalar
// subquery is rewritten to: grouped on the inner correlation column, with
// sub_-prefixed aggregate names, joined on the outer column under a
// generated qualifier.
func TestDecorrelatedSubqueryPlan(t *testing.T) {
	node, _, err := PlanQuery(`SELECT COUNT(*) AS n FROM sessions s
		WHERE (SELECT AVG(buffer_time) FROM sessions i WHERE s.cdn = i.cdn AND i.play_time > 0) < s.buffer_time`,
		testCatalog(), expr.NewRegistry(), agg.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	got := plan.Format(node)
	for _, want := range []string{
		"Select((s.buffer_time > __subval))",
		"Join(s.cdn=__subq1.__subq1_cdn)",
		"Project(i.cdn AS cdn, AVG(buffer_time) AS subval)",
		"Aggregate(i.cdn, AVG(buffer_time) AS sub_avg_0)",
		"Select((i.play_time > 0))",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("plan lacks %q:\n%s", want, got)
		}
	}
}

func TestPlanBetweenAndNotBetween(t *testing.T) {
	in := planAndRun(t, `SELECT COUNT(*) AS n FROM sessions WHERE buffer_time BETWEEN 19 AND 36`)
	if got := in.Tuples[0].Vals[0].Float(); got != 3 { // 36, 19, 26
		t.Errorf("between = %v, want 3", got)
	}
	out := planAndRun(t, `SELECT COUNT(*) AS n FROM sessions WHERE buffer_time NOT BETWEEN 19 AND 36`)
	if got := out.Tuples[0].Vals[0].Float(); got != 3 {
		t.Errorf("not between = %v, want 3", got)
	}
}

func TestPlanNotLike(t *testing.T) {
	out := planAndRun(t, `SELECT COUNT(*) AS n FROM sessions WHERE session_id NOT LIKE 'id1%'`)
	if got := out.Tuples[0].Vals[0].Float(); got != 5 {
		t.Errorf("not like = %v, want 5", got)
	}
}

func TestOrderByQualifiedAndAlias(t *testing.T) {
	out := planAndRun(t, `SELECT session_id AS sid, buffer_time FROM sessions ORDER BY sid DESC LIMIT 1`)
	if out.Tuples[0].Vals[0].Str() != "id6" {
		t.Errorf("order by alias failed: %v", out.Tuples[0].Vals[0])
	}
}

func TestSelectStar(t *testing.T) {
	out := planAndRun(t, "SELECT * FROM sessions WHERE buffer_time > 50 ORDER BY session_id")
	if out.Len() != 2 || len(out.Schema) != 4 {
		t.Fatalf("rows=%d cols=%d, want 2x4", out.Len(), len(out.Schema))
	}
	if out.Schema[0].Name != "session_id" || out.Tuples[0].Vals[0].Str() != "id2" {
		t.Errorf("star expansion wrong: %v", out.Schema)
	}
	// Star plus extra columns.
	out = planAndRun(t, "SELECT *, play_time / 60 AS mins FROM sessions LIMIT 1")
	if len(out.Schema) != 5 || out.Schema[4].Name != "mins" {
		t.Errorf("star+expr wrong: %v", out.Schema)
	}
	// Star over a join hides synthesised subquery columns.
	out = planAndRun(t, `SELECT * FROM sessions
		WHERE buffer_time > (SELECT AVG(buffer_time) FROM sessions)`)
	if len(out.Schema) != 4 {
		t.Errorf("star must hide subquery columns: %v", out.Schema)
	}
	if out.Len() != 3 {
		t.Errorf("rows = %d, want 3", out.Len())
	}
}

func TestGroupByExpression(t *testing.T) {
	// Q22's natural form, without the derived-table workaround.
	out := planAndRun(t, `SELECT SUBSTR(session_id, 1, 3) AS pre, COUNT(*) AS n
		FROM sessions GROUP BY SUBSTR(session_id, 1, 3)`)
	if out.Len() != 1 || out.Tuples[0].Vals[0].Str() != "id1" && out.Tuples[0].Vals[0].Str() != "id" {
		// All ids share prefix "id" + digit; SUBSTR(...,1,3) gives id1..id6 -> 6 groups.
	}
	out = planAndRun(t, `SELECT SUBSTR(session_id, 1, 2) AS pre, COUNT(*) AS n
		FROM sessions GROUP BY SUBSTR(session_id, 1, 2)`)
	if out.Len() != 1 {
		t.Fatalf("groups = %d, want 1 (all ids share prefix 'id')", out.Len())
	}
	if out.Tuples[0].Vals[0].Str() != "id" || out.Tuples[0].Vals[1].Float() != 6 {
		t.Errorf("group expr result wrong: %v", out.Tuples[0].Vals)
	}
	// Arithmetic bucketing.
	out = planAndRun(t, `SELECT buffer_time - buffer_time % 20 AS bucket, COUNT(*) AS n
		FROM sessions GROUP BY buffer_time - buffer_time % 20 ORDER BY bucket`)
	if out.Len() != 3 { // buckets 0 (17,19), 20 (36,26), 40 (58,56)
		t.Fatalf("buckets = %d, want 3:\n%s", out.Len(), out)
	}
	// Aggregates inside GROUP BY are rejected.
	stmt, err := Parse("SELECT COUNT(*) FROM sessions GROUP BY AVG(buffer_time)")
	if err == nil {
		if _, _, err := testPlanner().Plan(stmt); err == nil {
			t.Error("aggregate in GROUP BY must be rejected")
		}
	}
}
