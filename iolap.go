// Package iolap is an incremental OLAP query engine: a from-scratch Go
// implementation of "iOLAP: Managing Uncertainty for Efficient Incremental
// OLAP" (Zeng, Agarwal, Stoica — SIGMOD 2016).
//
// Given a SQL query over a streamed ("online") table, the engine randomly
// partitions the table into mini-batches and executes a delta update query
// per batch, delivering after every batch the exact answer the query would
// produce on the data seen so far (scaled to the full dataset) together with
// bootstrap error estimates. Stop when the accuracy suffices, or run to the
// end for the exact answer — the full approximate-to-exact spectrum in one
// engine.
//
// The delta update algorithm models incremental processing as uncertainty
// propagation: aggregate results over incomplete data are uncertain
// attributes carried as lineage references and refreshed lazily; tuples
// whose predicate decisions depend on them are split — using bootstrap-
// estimated variation ranges — into a near-deterministic set (decided once,
// never touched again) and a non-deterministic set (the only rows ever
// recomputed). Nested aggregate subqueries, UDFs and UDAFs are supported.
//
// Quick start:
//
//	s := iolap.NewSession()
//	s.MustCreateTable("sessions", []iolap.Column{
//		{Name: "session_id", Type: iolap.TString},
//		{Name: "buffer_time", Type: iolap.TFloat},
//		{Name: "play_time", Type: iolap.TFloat},
//	}, iolap.Streamed)
//	s.MustInsert("sessions", [][]any{{"id1", 36.0, 238.0}, ...})
//	cur, err := s.Query(`SELECT AVG(play_time) FROM sessions
//		WHERE buffer_time > (SELECT AVG(buffer_time) FROM sessions)`, nil)
//	for cur.Next() {
//		u := cur.Update()
//		fmt.Printf("%.0f%% processed: %v ± %.1f%%\n",
//			100*u.Fraction, u.Rows[0][0], 100*u.Estimates[0][0].RelStd)
//	}
package iolap

import (
	"fmt"
	"io"
	"sort"

	"iolap/internal/agg"
	"iolap/internal/bootstrap"
	"iolap/internal/core"
	"iolap/internal/exec"
	"iolap/internal/expr"
	"iolap/internal/rel"
	"iolap/internal/sql"
	"iolap/internal/storage"
)

// Type is a column type.
type Type uint8

// Column types.
const (
	TInt Type = iota
	TFloat
	TString
	TBool
)

func (t Type) kind() rel.Kind {
	switch t {
	case TInt:
		return rel.KInt
	case TFloat:
		return rel.KFloat
	case TString:
		return rel.KString
	case TBool:
		return rel.KBool
	}
	return rel.KNull
}

// Column declares one table column.
type Column struct {
	Name string
	Type Type
}

// Table creation modes.
const (
	// Static tables are read in full at the first mini-batch (dimension
	// tables).
	Static = false
	// Streamed tables are processed online, mini-batch by mini-batch (the
	// fact or largest table).
	Streamed = true
)

// Mode selects the delta update algorithm.
type Mode = core.Mode

// Engine modes re-exported for benchmarking baselines.
const (
	// ModeIOLAP is the full system (default).
	ModeIOLAP = core.ModeIOLAP
	// ModeOPT1 disables lazy lineage (ablation).
	ModeOPT1 = core.ModeOPT1
	// ModeHDA is the higher-order delta baseline (DBToaster-style).
	ModeHDA = core.ModeHDA
)

// Options tunes one incremental query execution.
type Options struct {
	// Mode selects the delta algorithm (default ModeIOLAP).
	Mode Mode
	// Batches is the mini-batch count p (default 10).
	Batches int
	// Trials is the bootstrap replicate count (default 100).
	Trials int
	// Slack is the variation-range slack ε (default 2.0).
	Slack float64
	// Seed drives all randomness; fixed seeds give bit-identical runs.
	Seed uint64
	// Stream overrides which table is processed online for this query
	// (defaults to the tables created with Streamed).
	Stream string
	// PreShuffle randomly permutes the streamed table before batching.
	PreShuffle bool
	// StratifyBy names a streamed-table column for proportional
	// stratified batching: every mini-batch carries the same fraction of
	// each stratum, so rare groups appear from the first batch.
	StratifyBy string
	// BlockRows, when positive, enables block-wise random batching: whole
	// blocks of this many rows are randomly assigned to mini-batches (the
	// paper's default HDFS-block randomness).
	BlockRows int
	// Workers bounds partition parallelism (default GOMAXPROCS). Results
	// are bit-identical at any worker count; only wall clock changes.
	Workers int
	// StateBudgetBytes caps resident join state: when cached join rows
	// exceed the budget, cold shards spill to disk and are read back
	// transparently on probe. Zero disables spilling; negative forces all
	// join state to disk. Like Workers, the budget changes only placement —
	// results stay bit-identical at any value. Call Cursor.Close when done
	// to release spill files.
	StateBudgetBytes int64
	// SpillDir hosts the spill files (default: a temp directory owned and
	// removed by the cursor).
	SpillDir string
}

// Estimate is the bootstrap error summary of one numeric output cell.
type Estimate struct {
	// Value is the running value on the data processed so far.
	Value float64
	// Stdev is the bootstrap standard deviation.
	Stdev float64
	// CILo and CIHi bound the 95% percentile confidence interval.
	CILo, CIHi float64
	// RelStd is |Stdev / Value| — the relative standard deviation.
	RelStd float64
}

// Update is one refined partial result.
type Update struct {
	// Batch / Batches report progress through the mini-batches.
	Batch, Batches int
	// Fraction is the portion of the streamed table processed so far.
	Fraction float64
	// Columns are the output column names.
	Columns []string
	// Rows holds the partial result as native Go values (int64, float64,
	// string, bool, or nil).
	Rows [][]interface{}
	// Estimates holds, aligned with Rows, bootstrap error estimates for
	// numeric cells (zero-valued for exact cells).
	Estimates [][]Estimate
	// DurationMillis is the batch wall-clock time.
	DurationMillis float64
	// Recomputed counts tuples re-evaluated this batch (delta update
	// overhead).
	Recomputed int
	// Recoveries counts variation-range failure recoveries this batch.
	Recoveries int
	// SpillBytesWritten / SpillBytesRead are this batch's join-state
	// spill-file traffic (zero unless Options.StateBudgetBytes is set).
	SpillBytesWritten, SpillBytesRead int64
}

// MaxRelStdev returns the worst relative standard deviation across all
// uncertain cells — a single accuracy number to stop on.
func (u *Update) MaxRelStdev() float64 {
	worst := 0.0
	for _, row := range u.Estimates {
		for _, e := range row {
			if e.Stdev > 0 && e.RelStd > worst {
				worst = e.RelStd
			}
		}
	}
	return worst
}

// Session holds tables, registered functions and catalog metadata.
type Session struct {
	tables   map[string]*rel.Relation
	streamed map[string]bool
	// formats records the on-disk layout each table was loaded from
	// (storage.Table.Format()); tables built in memory have no entry.
	formats map[string]string
	funcs   *expr.Registry
	aggs    *agg.Registry
}

// NewSession returns an empty session with the builtin scalar and aggregate
// functions registered.
func NewSession() *Session {
	return &Session{
		tables:   make(map[string]*rel.Relation),
		streamed: make(map[string]bool),
		formats:  make(map[string]string),
		funcs:    expr.NewRegistry(),
		aggs:     agg.NewRegistry(),
	}
}

// CreateTable declares a table. streamed selects whether the table is
// processed online (iolap.Streamed) or read in full (iolap.Static).
func (s *Session) CreateTable(name string, cols []Column, streamed bool) error {
	if name == "" || len(cols) == 0 {
		return fmt.Errorf("iolap: table needs a name and columns")
	}
	if _, ok := s.tables[name]; ok {
		return fmt.Errorf("iolap: table %q already exists", name)
	}
	schema := make(rel.Schema, len(cols))
	for i, c := range cols {
		schema[i] = rel.Column{Name: c.Name, Type: c.Type.kind()}
	}
	s.tables[name] = rel.NewRelation(schema)
	s.streamed[name] = streamed
	return nil
}

// MustCreateTable is CreateTable panicking on error.
func (s *Session) MustCreateTable(name string, cols []Column, streamed bool) {
	if err := s.CreateTable(name, cols, streamed); err != nil {
		panic(err)
	}
}

// DropTable removes a table from the session.
func (s *Session) DropTable(name string) error {
	if _, ok := s.tables[name]; !ok {
		return fmt.Errorf("iolap: unknown table %q", name)
	}
	delete(s.tables, name)
	delete(s.streamed, name)
	delete(s.formats, name)
	return nil
}

// Tables returns the session's table names, sorted.
func (s *Session) Tables() []string {
	out := make([]string, 0, len(s.tables))
	for name := range s.tables {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// RowCount returns a table's current row count.
func (s *Session) RowCount(name string) (int, error) {
	r, ok := s.tables[name]
	if !ok {
		return 0, fmt.Errorf("iolap: unknown table %q", name)
	}
	return r.Len(), nil
}

// Insert appends rows of native Go values (int/int64/float64/string/bool or
// nil) to a table.
func (s *Session) Insert(name string, rows [][]interface{}) error {
	table, ok := s.tables[name]
	if !ok {
		return fmt.Errorf("iolap: unknown table %q", name)
	}
	schema := table.Schema
	for _, row := range rows {
		if len(row) != len(schema) {
			return fmt.Errorf("iolap: row width %d != schema width %d", len(row), len(schema))
		}
		vals := make([]rel.Value, len(row))
		for i, cell := range row {
			v, err := toValue(cell)
			if err != nil {
				return fmt.Errorf("iolap: column %s: %w", schema[i].Name, err)
			}
			vals[i] = v
		}
		table.Append(vals...)
	}
	return nil
}

// MustInsert is Insert panicking on error.
func (s *Session) MustInsert(name string, rows [][]interface{}) {
	if err := s.Insert(name, rows); err != nil {
		panic(err)
	}
}

func toValue(cell interface{}) (rel.Value, error) {
	switch v := cell.(type) {
	case nil:
		return rel.Null(), nil
	case int:
		return rel.Int(int64(v)), nil
	case int64:
		return rel.Int(v), nil
	case float64:
		return rel.Float(v), nil
	case string:
		return rel.String(v), nil
	case bool:
		return rel.Bool(v), nil
	}
	return rel.Value{}, fmt.Errorf("unsupported value type %T", cell)
}

func fromValue(v rel.Value) interface{} {
	switch v.Kind() {
	case rel.KInt:
		return v.Int()
	case rel.KFloat:
		return v.Float()
	case rel.KString:
		return v.Str()
	case rel.KBool:
		return v.Bool()
	}
	return nil
}

// RegisterUDF installs a scalar user-defined function usable in queries.
func (s *Session) RegisterUDF(name string, minArgs, maxArgs int, fn func(args []interface{}) interface{}) error {
	return s.funcs.Register(expr.ScalarFunc{
		Name: name, MinArgs: minArgs, MaxArgs: maxArgs, RetType: rel.KFloat,
		Fn: func(args []rel.Value) rel.Value {
			defer expr.GuardUDF(name)
			converted := make([]interface{}, len(args))
			for i, a := range args {
				converted[i] = fromValue(a)
			}
			out, err := toValue(fn(converted))
			if err != nil {
				return rel.Null()
			}
			return out
		},
	})
}

// UDAF describes a user-defined aggregate: fold state with Add, read with
// Result. The aggregate must be smooth under sampling for error estimates to
// be valid (Section 3.3 of the paper) and mergeable for sketching.
type UDAF struct {
	Name string
	// New allocates the accumulator state.
	New func() UDAFState
}

// UDAFState is the incremental state of a UDAF.
type UDAFState interface {
	// Add folds a value with a weight (tuple multiplicity × bootstrap
	// weight).
	Add(value, weight float64)
	// Merge folds another state of the same type.
	Merge(other UDAFState)
	// Result reads the aggregate; scale is m_i^k for extensive
	// aggregates (intensive ones ignore it).
	Result(scale float64) float64
	// Clone deep-copies the state.
	Clone() UDAFState
}

// RegisterUDAF installs a user-defined aggregate function.
func (s *Session) RegisterUDAF(u UDAF) error {
	if u.New == nil {
		return fmt.Errorf("iolap: UDAF %q needs a state constructor", u.Name)
	}
	return s.aggs.Register(agg.Func{
		Name: u.Name, TakesArg: true, Smooth: true,
		New: func() agg.Accumulator {
			defer expr.GuardUDF(u.Name)
			return &udafAdapter{name: u.Name, state: u.New(), newState: u.New}
		},
	})
}

// udafAdapter runs a UDAF's state as an agg.Accumulator. Every call into the
// user's state is guarded: a panic there fails the query (expr.UDFPanic).
type udafAdapter struct {
	name     string
	state    UDAFState
	newState func() UDAFState
}

func (a *udafAdapter) Add(v, w float64) {
	defer expr.GuardUDF(a.name)
	a.state.Add(v, w)
}

func (a *udafAdapter) Result(scale float64) float64 {
	defer expr.GuardUDF(a.name)
	return a.state.Result(scale)
}

func (a *udafAdapter) Merge(o agg.Accumulator) {
	defer expr.GuardUDF(a.name)
	a.state.Merge(o.(*udafAdapter).state)
}

func (a *udafAdapter) Clone() agg.Accumulator {
	defer expr.GuardUDF(a.name)
	return &udafAdapter{name: a.name, state: a.state.Clone(), newState: a.newState}
}

func (a *udafAdapter) Reset() {
	defer expr.GuardUDF(a.name)
	a.state = a.newState()
}

func (a *udafAdapter) SizeBytes() int { return 64 }

// LoadBlockTable reads a block-table file (the format cmd/datagen writes
// with -format iol) into a new table. It returns the row count.
func (s *Session) LoadBlockTable(name string, r io.Reader, streamed bool) (int, error) {
	if _, ok := s.tables[name]; ok {
		return 0, fmt.Errorf("iolap: table %q already exists", name)
	}
	table, err := storage.Read(r)
	if err != nil {
		return 0, err
	}
	s.tables[name] = table.Rel
	s.streamed[name] = streamed
	s.formats[name] = table.Format()
	return table.Rel.Len(), nil
}

// TableFormat reports the on-disk layout a table was loaded from ("row v1",
// "columnar v2 (...)"), or "memory" for tables built with CreateTable/Insert.
func (s *Session) TableFormat(name string) (string, error) {
	if _, ok := s.tables[name]; !ok {
		return "", fmt.Errorf("iolap: unknown table %q", name)
	}
	if f, ok := s.formats[name]; ok {
		return f, nil
	}
	return "memory", nil
}

// WriteBlockTable serialises a table as a block-table file in the columnar
// v2 layout, optionally flate-compressed per block. blockRows <= 0 uses the
// storage default. This is the cmd/iolap -convert path: load any source,
// rewrite it columnar.
func (s *Session) WriteBlockTable(name string, w io.Writer, blockRows int, compress bool) error {
	r, ok := s.tables[name]
	if !ok {
		return fmt.Errorf("iolap: unknown table %q", name)
	}
	return storage.WriteColumnar(w, r, blockRows, compress)
}

func (s *Session) db() *exec.DB {
	db := exec.NewDB()
	for name, r := range s.tables {
		db.Put(name, r)
	}
	return db
}

// Exec runs the query once, exactly, over all data (the traditional batch
// baseline).
func (s *Session) Exec(query string) (*Update, error) {
	db := s.db()
	node, pp, err := sql.PlanQuery(query, sql.CatalogOf(db, s.streamed, ""), s.funcs, s.aggs)
	if err != nil {
		return nil, err
	}
	out, err := exec.Run(node, db)
	if err != nil {
		return nil, err
	}
	out = pp.Apply(out)
	u := &Update{Batch: 1, Batches: 1, Fraction: 1}
	fillUpdate(u, out, nil)
	return u, nil
}

// Cursor iterates the refined partial results of an incremental query.
type Cursor struct {
	engine *core.Engine
	pp     *sql.PostProcess
	cur    *Update
	err    error
}

// Query compiles the SQL text and prepares incremental execution; iterate
// with Next/Update. opts may be nil for defaults.
func (s *Session) Query(query string, opts *Options) (*Cursor, error) {
	if opts == nil {
		opts = &Options{}
	}
	db := s.db()
	cat := sql.CatalogOf(db, s.streamed, opts.Stream)
	node, pp, err := sql.PlanQuery(query, cat, s.funcs, s.aggs)
	if err != nil {
		return nil, err
	}
	coreOpts := core.Options{
		Mode:       opts.Mode,
		Batches:    opts.Batches,
		Trials:     opts.Trials,
		Slack:      opts.Slack,
		Seed:       opts.Seed,
		PreShuffle: opts.PreShuffle,
		StratifyBy: opts.StratifyBy,
		BlockRows:  opts.BlockRows,
		Workers:    opts.Workers,

		StateBudgetBytes: opts.StateBudgetBytes,
		SpillDir:         opts.SpillDir,
	}
	eng, err := core.NewEngine(node, db, coreOpts)
	if err != nil {
		return nil, err
	}
	return &Cursor{engine: eng, pp: pp}, nil
}

// Next advances to the next mini-batch result; it returns false when all
// batches are processed or an error occurred (see Err).
func (c *Cursor) Next() bool {
	if c.err != nil || c.engine.Done() {
		return false
	}
	u, err := c.engine.Step()
	if err != nil {
		c.err = err
		return false
	}
	c.cur = convertUpdate(u, c.pp)
	return true
}

// Update returns the current partial result.
func (c *Cursor) Update() *Update { return c.cur }

// Err returns the first error encountered by Next.
func (c *Cursor) Err() error { return c.err }

// RunUntil advances batches until the worst relative standard deviation
// falls to or below target (or the data is exhausted) and returns the last
// update — the "stop when the answer is good enough" interaction of the
// paper's Section 1. A target <= 0 runs to completion (exact answer).
func (c *Cursor) RunUntil(target float64) (*Update, error) {
	var last *Update
	for c.Next() {
		last = c.Update()
		if target > 0 && last.MaxRelStdev() > 0 && last.MaxRelStdev() <= target {
			return last, nil
		}
	}
	if c.err != nil {
		return last, c.err
	}
	return last, nil
}

// Recoveries returns the total failure-recovery count so far.
func (c *Cursor) Recoveries() int { return c.engine.TotalRecoveries() }

// CostSnapshot exports the engine's learned per-row cost profile (ns per
// row per operator class, the input of the parallel cutovers).
func (c *Cursor) CostSnapshot() map[string]float64 { return c.engine.CostSnapshot() }

// Close releases the cursor's spill files and their temp directory, if any.
// Call it when done iterating a query that set Options.StateBudgetBytes; it
// is a no-op otherwise, and idempotent.
func (c *Cursor) Close() error { return c.engine.Close() }

// Plan renders the compiled online plan (diagnostics).
func (c *Cursor) Plan() string { return c.engine.PlanString() }

// OpStat is one online operator's statistics for the most recent batch.
type OpStat struct {
	// Kind is the operator class.
	Kind string
	// News / Unc are certain and tuple-uncertain rows emitted last batch.
	News, Unc int
	// StateBytes is the operator's current state footprint.
	StateBytes int
	// SpilledRows is how many of the operator's cached rows currently live
	// in spill files rather than memory (joins only).
	SpilledRows int
}

// OpStats reports per-operator statistics for the most recent batch
// (EXPLAIN ANALYZE-style), in bottom-up plan order.
func (c *Cursor) OpStats() []OpStat {
	raw := c.engine.OpStats()
	out := make([]OpStat, len(raw))
	for i, s := range raw {
		out[i] = OpStat{Kind: s.Kind, News: s.News, Unc: s.Unc,
			StateBytes: s.StateBytes, SpilledRows: s.SpilledRows}
	}
	return out
}

func convertUpdate(u *core.Update, pp *sql.PostProcess) *Update {
	out := &Update{
		Batch:          u.Batch,
		Batches:        u.Batches,
		Fraction:       u.Fraction,
		DurationMillis: float64(u.Duration.Microseconds()) / 1000,
		Recomputed:     u.Recomputed,
		Recoveries:     u.Recoveries,

		SpillBytesWritten: u.SpillBytesWritten,
		SpillBytesRead:    u.SpillBytesRead,
	}
	// ORDER BY / LIMIT apply per delivered result; estimate alignment is
	// preserved by sorting indexes alongside.
	result, ests := pp.ApplyWithEstimates(u.Result, u.Estimates)
	fillUpdate(out, result, ests)
	return out
}

func fillUpdate(u *Update, result *rel.Relation, ests [][]bootstrap.Estimate) {
	u.Columns = result.Schema.Names()
	u.Rows = make([][]interface{}, result.Len())
	u.Estimates = make([][]Estimate, result.Len())
	for i, tp := range result.Tuples {
		row := make([]interface{}, len(tp.Vals))
		for j, v := range tp.Vals {
			row[j] = fromValue(v)
		}
		u.Rows[i] = row
		es := make([]Estimate, len(tp.Vals))
		if ests != nil && i < len(ests) {
			for j, e := range ests[i] {
				es[j] = Estimate{Value: e.Value, Stdev: e.Stdev,
					CILo: e.CILo, CIHi: e.CIHi, RelStd: e.RelStd}
			}
		}
		u.Estimates[i] = es
	}
}
