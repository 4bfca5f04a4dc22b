// Package harness regenerates every table and figure of the paper's
// evaluation (Section 8) against the laptop-scale workloads. Each experiment
// returns printable series whose *shape* (who wins, growth trends,
// crossovers) reproduces the corresponding artifact; absolute numbers
// differ because the substrate is an in-process runtime, not a 20-machine
// Spark cluster. EXPERIMENTS.md records the paper-vs-measured comparison.
package harness

import (
	"fmt"
	"io"
	"strings"
	"time"

	"iolap/internal/core"
	"iolap/internal/exec"
	"iolap/internal/rel"
	"iolap/internal/workload"
)

// Config scales the experiments.
type Config struct {
	// TPCHFact / ConvivaSessions size the two fact tables.
	TPCHFact        int
	ConvivaSessions int
	// Batches is the mini-batch count p.
	Batches int
	// Trials is the bootstrap replicate count.
	Trials int
	// Slack is the default variation-range slack ε.
	Slack float64
	// Seed drives all generators and engines.
	Seed uint64
	// Runs is the repetition count for probabilistic measurements
	// (failure-recovery rates).
	Runs int
}

// WithDefaults fills the zero fields with benchmark-friendly values.
func (c Config) WithDefaults() Config {
	if c.TPCHFact <= 0 {
		c.TPCHFact = 3000
	}
	if c.ConvivaSessions <= 0 {
		c.ConvivaSessions = 3000
	}
	if c.Batches <= 0 {
		c.Batches = 10
	}
	if c.Trials <= 0 {
		c.Trials = 40
	}
	if c.Slack == 0 {
		c.Slack = 2.0
	}
	if c.Runs <= 0 {
		c.Runs = 5
	}
	return c
}

// Result is one printable series (a figure panel or table).
type Result struct {
	ID     string // experiment id, e.g. "fig7a"
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// Print renders the result as an aligned text table.
func (r *Result) Print(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", r.ID, r.Title)
	widths := make([]int, len(r.Header))
	for i, h := range r.Header {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(r.Header)
	for _, row := range r.Rows {
		line(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintln(w, "note: "+n)
	}
	fmt.Fprintln(w)
}

// Experiment is one registered experiment.
type Experiment struct {
	ID    string
	Paper string // the paper artifact it regenerates
	Run   func(cfg Config) ([]*Result, error)
}

// All returns the experiment registry in paper order.
func All() []Experiment {
	return []Experiment{
		{ID: "table1", Paper: "Table 1 (batch sizes)", Run: Table1},
		{ID: "fig7a", Paper: "Figure 7(a) accuracy vs time, Conviva C8", Run: Fig7a},
		{ID: "fig7b", Paper: "Figure 7(b) latency vs baseline, TPC-H", Run: Fig7b},
		{ID: "fig7c", Paper: "Figure 7(c) latency vs baseline, Conviva", Run: Fig7c},
		{ID: "fig8ab", Paper: "Figure 8(a,b) HDA/iOLAP batch latency ratio, TPC-H", Run: Fig8ab},
		{ID: "fig8cd", Paper: "Figure 8(c,d) HDA/iOLAP batch latency ratio, Conviva", Run: Fig8cd},
		{ID: "fig8ef", Paper: "Figure 8(e,f) tuples recomputed per batch", Run: Fig8ef},
		{ID: "fig9a", Paper: "Figure 9(a) optimization breakdown, Conviva C2", Run: Fig9a},
		{ID: "fig9b", Paper: "Figure 9(b) operator state sizes, TPC-H", Run: Fig9b},
		{ID: "fig9c", Paper: "Figure 9(c) data shipped, TPC-H", Run: Fig9c},
		{ID: "fig9d", Paper: "Figure 9(d) slack vs failure-recovery, Conviva", Run: Fig9d},
		{ID: "fig9e", Paper: "Figure 9(e) slack vs recomputed tuples, Conviva", Run: Fig9e},
		{ID: "fig9fg", Paper: "Figure 9(f,g) batch size vs latency, Conviva", Run: Fig9fg},
		{ID: "fig10ab", Paper: "Figure 10(a,b) iOLAP vs HDA latency", Run: Fig10ab},
		{ID: "fig10c", Paper: "Figure 10(c) operator state sizes, Conviva", Run: Fig10c},
		{ID: "fig10d", Paper: "Figure 10(d) data shipped, Conviva", Run: Fig10d},
		{ID: "fig10ef", Paper: "Figure 10(e,f) slack sweep, TPC-H", Run: Fig10ef},
		{ID: "spill", Paper: "(extra) join-state budget vs spill traffic, TPC-H Q17", Run: Spill},
		{ID: "scale", Paper: "(extra) scale sensitivity of the tiny-group deviations", Run: ScaleSensitivity},
		{ID: "serve", Paper: "(extra) multi-query serving: concurrent sessions over one shared scan", Run: Serve},
	}
}

// Lookup finds an experiment by id.
func Lookup(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// ---------------------------------------------------------------------------
// Shared runners

func (c Config) tpch() *workload.Workload {
	return workload.TPCH(workload.TPCHScale{Fact: c.TPCHFact, Seed: int64(c.Seed)})
}

func (c Config) conviva() *workload.Workload {
	return workload.Conviva(workload.ConvivaScale{Sessions: c.ConvivaSessions, Seed: int64(c.Seed)})
}

// queryRun is one engine execution of one query.
type queryRun struct {
	query   workload.Query
	updates []*core.Update
	engine  *core.Engine
}

func (r *queryRun) totalLatency() time.Duration {
	var t time.Duration
	for _, u := range r.updates {
		t += u.Duration
	}
	return t
}

// identicalTo backs every "identical" column: the two runs delivered the
// same number of updates and, batch for batch, the same (result, estimates)
// pair by core.ResultDigest and the same modeled exchange bytes.
func (r *queryRun) identicalTo(ref *queryRun) bool {
	if len(r.updates) != len(ref.updates) {
		return false
	}
	for i, a := range r.updates {
		b := ref.updates[i]
		da, errA := core.ResultDigest(a.Result, a.Estimates)
		db, errB := core.ResultDigest(b.Result, b.Estimates)
		if errA != nil || errB != nil || da != db ||
			a.ShuffleBytes != b.ShuffleBytes || a.BroadcastBytes != b.BroadcastBytes {
			return false
		}
	}
	return true
}

// latencyToFraction sums batch durations until the processed fraction
// reaches f.
func (r *queryRun) latencyToFraction(f float64) time.Duration {
	var t time.Duration
	for _, u := range r.updates {
		t += u.Duration
		if u.Fraction >= f {
			return t
		}
	}
	return t
}

func runQuery(w *workload.Workload, q workload.Query, opts core.Options) (*queryRun, error) {
	node, _, err := w.Plan(q)
	if err != nil {
		return nil, err
	}
	eng, err := core.NewEngine(node, w.DB(), opts)
	if err != nil {
		return nil, fmt.Errorf("%s/%s: %w", w.Name, q.Name, err)
	}
	updates, err := eng.Run()
	if err != nil {
		return nil, fmt.Errorf("%s/%s: %w", w.Name, q.Name, err)
	}
	return &queryRun{query: q, updates: updates, engine: eng}, nil
}

// baseline measures the one-shot exact execution (the unmodified-engine
// baseline of Section 8.1).
func baseline(w *workload.Workload, q workload.Query) (time.Duration, *rel.Relation, error) {
	node, pp, err := w.Plan(q)
	if err != nil {
		return 0, nil, err
	}
	db := w.DB()
	start := time.Now()
	out, err := exec.Run(node, db)
	if err != nil {
		return 0, nil, err
	}
	out = pp.Apply(out)
	return time.Since(start), out, nil
}

func ms(d time.Duration) string {
	return fmt.Sprintf("%.2f", float64(d.Microseconds())/1000)
}

func ratio(a, b time.Duration) string {
	if b == 0 {
		return "inf"
	}
	return fmt.Sprintf("%.2f", float64(a)/float64(b))
}

func kb(n int64) string { return fmt.Sprintf("%.1f", float64(n)/1024) }
