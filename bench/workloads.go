package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"iolap/internal/exec"
	"iolap/internal/plan"
	"iolap/internal/rel"
	"iolap/internal/sql"
	"iolap/internal/storage"
	"iolap/internal/workload"
)

// spec is one benchmark workload: which generated tables, which queries,
// and the two engine settings that differ between workloads. Everything
// else runs on the engine's defaults.
type spec struct {
	name string
	why  string
	// tpchRows / convivaRows are the fact-table sizes (0 = the dataset is
	// not generated).
	tpchRows, convivaRows int
	// queries name the workload queries as dataset/name.
	queries []string
	// trials is core.Options.Trials: 0 keeps the default B=100, -1 turns
	// the bootstrap off.
	trials  int
	batches int
	serve   bool
}

// specs are the six workloads. Sizes are ISSUE 11's reference sizes scaled
// by one common factor (1/3) so a run fits the driver's time cap; the
// README's workload table gives the reason for each.
var specs = []spec{
	{name: "flat_boot", tpchRows: 100000, convivaRows: 100000, batches: 20,
		queries: []string{"tpch/Q1", "tpch/Q6", "conviva/C3", "conviva/C5", "conviva/C12"},
		why:     "single-table SPJA at B=100, 100k rows: replicate fold, Poisson weights and sink summarise do the work; joins and uncertainty do none"},
	{name: "flat_noboot", tpchRows: 100000, convivaRows: 100000, batches: 20, trials: -1,
		queries: []string{"tpch/Q1", "tpch/Q6", "conviva/C3", "conviva/C5", "conviva/C12"},
		why:     "same data and queries with the bootstrap off: scan, columns, select and the main-only fold dominate, so a B=100-only gain must not move it"},
	{name: "join_star", tpchRows: 100000, batches: 20,
		queries: []string{"tpch/Q3", "tpch/Q7"},
		why:     "TPC-H Q3+Q7 at 100k rows, B=100: static dimension builds, per-batch hash probes, key encoding and a many-group sink, which flat workloads never touch"},
	{name: "nested_unc", tpchRows: 50000, convivaRows: 50000, batches: 20,
		queries: []string{"conviva/C1", "conviva/C2", "conviva/C6", "conviva/C8", "tpch/Q11"},
		why:     "nested aggregates over large inner groups at 50k rows: variation ranges bind, so ND-sets, lazy re-evaluation, snapshots and recovery carry the run"},
	{name: "nested_tiny", tpchRows: 16000, batches: 20,
		queries: []string{"tpch/Q17", "tpch/Q18", "tpch/Q20"},
		why:     "nested aggregates over tiny inner groups at 16k rows: ranges never bind (MinRangeSupport cliff), every batch recomputes, 9-40x the exact baseline"},
	{name: "serve_cohort", convivaRows: 20000, batches: 10, serve: true,
		queries: []string{"conviva/C1", "conviva/C2", "conviva/C3", "conviva/C8"},
		why:     "serving engine over TCP, 20k rows, closed loop of pipelined 4-session waves: admission, cohort fan-out, share cache and wire codec at tiny batches"},
}

func findSpec(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// query is one workload query bound to its loaded tables, with the exact
// baseline's plan made once (the online path re-plans on every run, as
// iolap.Session.Query does).
type query struct {
	id       string // dataset/name
	name     string
	sql      string
	wl       *workload.Workload
	cat      *sql.Catalog
	db       *exec.DB
	stream   string
	rows     int // streamed-table rows
	execPlan plan.Node
	execPP   *sql.PostProcess
}

// dataset is a workload's loaded tables and bound queries.
type dataset struct {
	queries []*query
	// tables is every loaded relation, for the layer probes.
	tables map[string]*rel.Relation
}

// scaled shrinks a row count for the smoke test; every measured run has
// scale 1.
func scaled(rows int, scale float64) int {
	n := int(float64(rows) * scale)
	if n < 200 {
		n = 200
	}
	return n
}

// setup generates the workload's tables from the seed, writes each as a
// columnar .iol v2 file under dir, loads it back, and binds the queries to
// the loaded copies — the path a user's data takes into the engine.
func setup(sp spec, seed int64, scale float64, dir string) (*dataset, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	sets := map[string]*workload.Workload{}
	if sp.tpchRows > 0 {
		sets["tpch"] = workload.TPCH(workload.TPCHScale{Fact: scaled(sp.tpchRows, scale), Seed: seed})
	}
	if sp.convivaRows > 0 {
		sets["conviva"] = workload.Conviva(workload.ConvivaScale{Sessions: scaled(sp.convivaRows, scale), Seed: seed})
	}
	ds := &dataset{tables: map[string]*rel.Relation{}}
	for _, w := range sets {
		names := make([]string, 0, len(w.Tables))
		for name := range w.Tables {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			loaded, err := roundTrip(w.Tables[name], filepath.Join(dir, name+".iol"))
			if err != nil {
				return nil, fmt.Errorf("setup %s: %w", name, err)
			}
			w.Tables[name] = loaded
			ds.tables[name] = loaded
		}
	}
	for _, id := range sp.queries {
		setName, qName := filepath.Dir(id), filepath.Base(id)
		w := sets[setName]
		wq, ok := w.Query(qName)
		if !ok {
			return nil, fmt.Errorf("setup: unknown query %s", id)
		}
		q := &query{id: id, name: qName, sql: wq.SQL, wl: w, cat: w.Catalog(wq.Stream),
			db: w.DB(), stream: wq.Stream, rows: w.Tables[wq.Stream].Len()}
		var err error
		if q.execPlan, q.execPP, err = w.Plan(wq); err != nil {
			return nil, err
		}
		ds.queries = append(ds.queries, q)
	}
	return ds, nil
}

// roundTrip writes r as columnar .iol v2 and reads it back.
func roundTrip(r *rel.Relation, path string) (*rel.Relation, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	defer os.Remove(path)
	if err := storage.WriteColumnar(f, r, 0, false); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	in, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer in.Close()
	t, err := storage.Read(in)
	if err != nil {
		return nil, err
	}
	return t.Rel, nil
}

// setupRuns is how many times a run sets up. The traced run does not report
// setup_s and sets up once. Otherwise one discarded warm-up — the first
// set-up of a process grows the heap and reads 1.5-2x the rest — and then
// nine timed ones, of which the median is reported (single set-ups differ by
// +-12% with where the collector's cycles fall; the quartiles of five were
// too rough for -compare to tell that from a spread above the bound).
func setupRuns(cfg config) int {
	if cfg.traced {
		return 1
	}
	return 1 + 9
}

// timedSetups drops the warm-up from the wall times of setupRuns set-ups.
func timedSetups(times []float64) []float64 {
	if len(times) > 1 {
		return times[1:]
	}
	return times
}

// timedSetup sets up setupRuns times and returns the last dataset with the
// timed runs' wall times.
func timedSetup(sp spec, cfg config) (*dataset, []float64, error) {
	var ds *dataset
	var times []float64
	for i := 0; i < setupRuns(cfg); i++ {
		ds = nil
		runtime.GC() // drop the previous repetition's tables first
		start := time.Now()
		d, err := setup(sp, cfg.seed, cfg.scale, cfg.dir)
		if err != nil {
			return nil, nil, err
		}
		times = append(times, time.Since(start).Seconds())
		ds = d
	}
	return ds, timedSetups(times), nil
}
