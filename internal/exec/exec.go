// Package exec implements the exact batch executor: it evaluates a logical
// plan over fully materialised relations under the bag semantics with real
// multiplicities of Appendix A. It plays two roles in the repository:
//
//   - the *baseline* OLAP engine the paper compares against (unmodified
//     SparkSQL in Section 8): one shot over all the data, exact answer;
//   - the test oracle for Theorem 1: iOLAP's batch-i output must equal
//     Run(Q, D_i) with streamed tuples carrying multiplicity m_i.
//
// Evaluation is partition-parallel over a cluster.Pool, following the same
// deterministic shard → ordered merge discipline as the online operators:
// RunWorkers(q, db, 1) and RunWorkers(q, db, n) return byte-identical
// relations, so the oracle stays exact at any parallelism.
package exec

import (
	"fmt"
	"sort"

	"iolap/internal/agg"
	"iolap/internal/cluster"
	"iolap/internal/expr"
	"iolap/internal/plan"
	"iolap/internal/rel"
)

// DB is a named collection of materialised relations.
type DB struct {
	tables map[string]*rel.Relation
}

// NewDB returns an empty database.
func NewDB() *DB { return &DB{tables: make(map[string]*rel.Relation)} }

// Put registers (or replaces) a table.
func (db *DB) Put(name string, r *rel.Relation) { db.tables[name] = r }

// Get looks up a table.
func (db *DB) Get(name string) (*rel.Relation, bool) {
	r, ok := db.tables[name]
	return r, ok
}

// Clone returns a shallow copy of the database: a fresh name→relation map
// over the same materialised relations. The serving engine freezes its table
// set with it, so a later Put on the source cannot race the long-lived scan
// loops reading the snapshot.
func (db *DB) Clone() *DB {
	out := NewDB()
	for name, r := range db.tables {
		out.tables[name] = r
	}
	return out
}

// Tables returns the table names, sorted for run-to-run determinism.
func (db *DB) Tables() []string {
	out := make([]string, 0, len(db.tables))
	for name := range db.tables {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Executor evaluates plans with a fixed worker pool and an adaptive
// sequential/parallel cutover (cluster.Runner). The cutover is executor
// state — an EWMA of measured per-row cost per operator class — not a
// package variable, so concurrent executors (and the tests that force the
// parallel paths onto small fixtures) cannot race on each other's tuning.
// An Executor is not safe for concurrent use; create one per goroutine.
type Executor struct {
	workers int
	run     cluster.Runner
}

// NewExecutor returns an executor with the given parallelism (0 selects
// GOMAXPROCS, 1 forces sequential execution) and an adaptive cutover that
// improves as the executor runs more plans.
func NewExecutor(workers int) *Executor {
	return &Executor{workers: workers, run: cluster.NewRunner(workers, 0)}
}

// SetCutover pins the sequential/parallel cutover to a fixed row count for
// every operator class (n <= 0 restores the adaptive model). This is the
// test hook that replaced the old mutable package-level threshold: the
// execution lattice of internal/core pins it to 1 to force every parallel
// path onto small fixtures.
func (x *Executor) SetCutover(n int) { x.run = cluster.NewRunner(x.workers, n) }

// Run evaluates the plan against the database and returns the result
// relation. The plan must be finalized and valid. The result is identical
// at any worker count. A user function that panics (expr.UDFPanic) fails the
// run with that error; any other panic keeps unwinding.
func (x *Executor) Run(root plan.Node, db *DB) (out *rel.Relation, err error) {
	defer func() {
		if r := recover(); r != nil {
			p, ok := r.(expr.UDFPanic)
			if !ok {
				panic(r)
			}
			out, err = nil, p
		}
	}()
	e := &executor{db: db, run: x.run}
	return e.eval(root)
}

// Run evaluates the plan with default parallelism (GOMAXPROCS).
func Run(root plan.Node, db *DB) (*rel.Relation, error) {
	return RunWorkers(root, db, 0)
}

// RunWorkers evaluates the plan with an explicit parallelism (0 selects
// GOMAXPROCS, 1 forces sequential execution).
func RunWorkers(root plan.Node, db *DB, workers int) (*rel.Relation, error) {
	return NewExecutor(workers).Run(root, db)
}

// executor is one plan evaluation. Every row-parallel site runs on run,
// which gates it, clocks it and cuts it; each parallel form is bit-identical
// to its inline one, so the runner's answer never shows in a result.
type executor struct {
	db  *DB
	run cluster.Runner
}

func (e *executor) eval(n plan.Node) (*rel.Relation, error) {
	switch t := n.(type) {
	case *plan.Scan:
		src, ok := e.db.Get(t.Table)
		if !ok {
			return nil, fmt.Errorf("exec: unknown table %q", t.Table)
		}
		out := rel.NewRelation(t.Out)
		out.Tuples = append(out.Tuples, src.Tuples...)
		return out, nil

	case *plan.Select:
		in, err := e.eval(t.Child)
		if err != nil {
			return nil, err
		}
		out := rel.NewRelation(in.Schema)
		keep := make([]bool, len(in.Tuples))
		e.run.Chunks(cluster.CostSelect, len(in.Tuples), func(lo, hi int) {
			for i := lo; i < hi; i++ {
				v := t.Pred.Eval(in.Tuples[i].Vals, nil)
				keep[i] = !v.IsNull() && v.Kind() == rel.KBool && v.Bool()
			}
		})
		for i, tp := range in.Tuples {
			if keep[i] {
				out.Tuples = append(out.Tuples, tp)
			}
		}
		return out, nil

	case *plan.Project:
		in, err := e.eval(t.Child)
		if err != nil {
			return nil, err
		}
		out := rel.NewRelation(t.Out)
		out.Tuples = make([]rel.Tuple, len(in.Tuples))
		e.run.Chunks(cluster.CostProject, len(in.Tuples), func(lo, hi int) {
			for ti := lo; ti < hi; ti++ {
				tp := in.Tuples[ti]
				vals := make([]rel.Value, len(t.Exprs))
				for i, ex := range t.Exprs {
					vals[i] = ex.Eval(tp.Vals, nil)
				}
				out.Tuples[ti] = rel.Tuple{Vals: vals, Mult: tp.Mult}
			}
		})
		return out, nil

	case *plan.Join:
		l, err := e.eval(t.L)
		if err != nil {
			return nil, err
		}
		r, err := e.eval(t.R)
		if err != nil {
			return nil, err
		}
		return e.hashJoin(l, r, t.LKeys, t.RKeys, t.Out), nil

	case *plan.Union:
		l, err := e.eval(t.L)
		if err != nil {
			return nil, err
		}
		r, err := e.eval(t.R)
		if err != nil {
			return nil, err
		}
		out := rel.NewRelation(l.Schema)
		out.Tuples = append(out.Tuples, l.Tuples...)
		out.Tuples = append(out.Tuples, r.Tuples...)
		return out, nil

	case *plan.Aggregate:
		in, err := e.eval(t.Child)
		if err != nil {
			return nil, err
		}
		return e.aggregate(in, t, 1.0), nil

	default:
		return nil, fmt.Errorf("exec: unknown node %T", n)
	}
}

// joinShards is the build-side shard count of the parallel hash join.
const joinShards = 16

// buildIndex hashes tuples by their key columns into a fixed number of
// key-space shards, building shards in parallel while preserving per-key
// tuple order (bucketing by shard happens sequentially in input order; one
// worker then owns each shard).
func (e *executor) buildIndex(tuples []rel.Tuple, keyCols []int) *[joinShards]map[string][]rel.Tuple {
	var shards [joinShards]map[string][]rel.Tuple
	for i := range shards {
		shards[i] = make(map[string][]rel.Tuple)
	}
	e.run.Run(cluster.CostJoinBuild, len(tuples), func(p *cluster.Pool) {
		if p == nil {
			for _, tp := range tuples {
				k := rel.EncodeKey(tp.Vals, keyCols)
				s := joinShard(k)
				shards[s][k] = append(shards[s][k], tp)
			}
			return
		}
		keys := make([]string, len(tuples))
		p.Span(len(tuples), func(lo, hi int) {
			for i := lo; i < hi; i++ {
				keys[i] = rel.EncodeKey(tuples[i].Vals, keyCols)
			}
		})
		var byShard [joinShards][]int32
		for i, k := range keys {
			s := joinShard(k)
			byShard[s] = append(byShard[s], int32(i))
		}
		// Size-hinted shard scheduling: under skewed keys one shard holds
		// most rows; cutting by shard size makes the heavy shard a claim of
		// its own while the workers share its siblings.
		p.MapSized(joinShards, func(s int) int { return len(byShard[s]) }, func(s int) {
			m := shards[s]
			for _, i := range byShard[s] {
				m[keys[i]] = append(m[keys[i]], tuples[i])
			}
		})
	})
	return &shards
}

func joinShard(key string) int {
	var f uint64 = 0xcbf29ce484222325
	for i := 0; i < len(key); i++ {
		f ^= uint64(key[i])
		f *= 0x100000001b3
	}
	return int(f % joinShards)
}

// hashJoin performs the equi-join of two materialised relations: sharded
// parallel build on the smaller side, chunk-parallel probe with per-chunk
// buffers concatenated in chunk order — output order identical to the
// sequential nested loop.
func (e *executor) hashJoin(l, r *rel.Relation, lKeys, rKeys []int, out rel.Schema) *rel.Relation {
	res := rel.NewRelation(out)
	buildRight := len(r.Tuples) <= len(l.Tuples)
	var build *[joinShards]map[string][]rel.Tuple
	var probe []rel.Tuple
	var probeKeys []int
	if buildRight {
		build = e.buildIndex(r.Tuples, rKeys)
		probe, probeKeys = l.Tuples, lKeys
	} else {
		build = e.buildIndex(l.Tuples, lKeys)
		probe, probeKeys = r.Tuples, rKeys
	}
	emit := func(dst []rel.Tuple, p rel.Tuple) []rel.Tuple {
		k := rel.EncodeKey(p.Vals, probeKeys)
		for _, m := range build[joinShard(k)][k] {
			if buildRight {
				dst = append(dst, joinTuple(p, m))
			} else {
				dst = append(dst, joinTuple(m, p))
			}
		}
		return dst
	}
	res.Tuples = cluster.Collect(e.run, cluster.CostJoinProbe, len(probe), func(lo, hi int) []rel.Tuple {
		var buf []rel.Tuple
		for _, p := range probe[lo:hi] {
			buf = emit(buf, p)
		}
		return buf
	})
	return res
}

func joinTuple(l, r rel.Tuple) rel.Tuple {
	vals := make([]rel.Value, 0, len(l.Vals)+len(r.Vals))
	vals = append(vals, l.Vals...)
	vals = append(vals, r.Vals...)
	return rel.Tuple{Vals: vals, Mult: l.Mult * r.Mult}
}

// Aggregate evaluates a group-by/aggregate node over a materialised input
// with the given extensive scale factor. It is exported because the online
// engines reuse it for recomputation paths. Result kinds follow the node's
// output schema via rel.Numeric: an integer-typed aggregate column (e.g. an
// unscaled COUNT) comes back as INT when the value is integral, FLOAT
// otherwise — never losing precision to the declared kind.
func Aggregate(in *rel.Relation, t *plan.Aggregate, scale float64) *rel.Relation {
	return (&executor{}).aggregate(in, t, scale)
}

func (e *executor) aggregate(in *rel.Relation, t *plan.Aggregate, scale float64) *rel.Relation {
	type group struct {
		key  []rel.Value
		accs []agg.Accumulator
	}
	newGroup := func(tp rel.Tuple) *group {
		key := make([]rel.Value, len(t.GroupBy))
		for i, c := range t.GroupBy {
			key[i] = tp.Vals[c]
		}
		accs := make([]agg.Accumulator, len(t.Aggs))
		for i, sp := range t.Aggs {
			accs[i] = sp.Fn.New()
		}
		return &group{key: key, accs: accs}
	}
	// argVal evaluates aggregate argument i for a tuple; ok=false skips the
	// tuple for that aggregate (the NULL semantics of the sequential loop).
	argVal := func(i int, tp rel.Tuple) (float64, bool) {
		sp := t.Aggs[i]
		if sp.Arg == nil {
			return 0, true // COUNT(*)
		}
		v := sp.Arg.Eval(tp.Vals, nil)
		if v.IsNull() {
			return 0, false
		}
		if sp.Fn.AcceptsAny {
			return v.NumericKey(), true
		}
		if !v.IsNumeric() {
			return 0, false
		}
		return v.Float(), true
	}
	groups := make(map[string]*group)
	var order []string
	e.run.Run(cluster.CostFold, len(in.Tuples), func(p *cluster.Pool) {
		if p == nil {
			for _, tp := range in.Tuples {
				if tp.Mult == 0 {
					continue
				}
				k := rel.EncodeKey(tp.Vals, t.GroupBy)
				g, ok := groups[k]
				if !ok {
					g = newGroup(tp)
					groups[k] = g
					order = append(order, k)
				}
				for i := range t.Aggs {
					if v, ok := argVal(i, tp); ok {
						g.accs[i].Add(v, tp.Mult)
					}
				}
			}
			return
		}
		// On a pool: groups are created sequentially in first-seen order;
		// one task per group folds that group's tuples in input order — the
		// same add sequence per accumulator as the inline loop, whichever
		// worker runs it. Size hints (the group's row count) make a
		// zipf-heavy group a claim of its own instead of serialising a whole
		// creation-index shard behind it.
		var glist []*group
		rowsOf := make(map[*group][]int32)
		for ti, tp := range in.Tuples {
			if tp.Mult == 0 {
				continue
			}
			k := rel.EncodeKey(tp.Vals, t.GroupBy)
			g, ok := groups[k]
			if !ok {
				g = newGroup(tp)
				groups[k] = g
				order = append(order, k)
				glist = append(glist, g)
			}
			rowsOf[g] = append(rowsOf[g], int32(ti))
		}
		p.MapSized(len(glist),
			func(gi int) int { return len(rowsOf[glist[gi]]) },
			func(gi int) {
				g := glist[gi]
				for _, ti := range rowsOf[g] {
					tp := in.Tuples[ti]
					for i := range t.Aggs {
						if v, ok := argVal(i, tp); ok {
							g.accs[i].Add(v, tp.Mult)
						}
					}
				}
			})
	})
	// SQL semantics: a global aggregate (no GROUP BY) over empty input
	// still yields one row (COUNT = 0, AVG = NaN/NULL-like).
	if len(t.GroupBy) == 0 && len(order) == 0 {
		accs := make([]agg.Accumulator, len(t.Aggs))
		for i, sp := range t.Aggs {
			accs[i] = sp.Fn.New()
		}
		groups[""] = &group{accs: accs}
		order = append(order, "")
	}
	out := rel.NewRelation(t.Out)
	for _, k := range order {
		g := groups[k]
		vals := make([]rel.Value, 0, len(g.key)+len(g.accs))
		vals = append(vals, g.key...)
		for i, acc := range g.accs {
			vals = append(vals, rel.Numeric(acc.Result(scale), t.Out[len(t.GroupBy)+i].Type))
		}
		out.Append(vals...)
	}
	return out
}
