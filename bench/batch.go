package main

import (
	"fmt"
	"runtime"
	"time"

	"iolap/internal/cluster"
	"iolap/internal/core"
	"iolap/internal/rel"
)

// config is what the command line sets.
type config struct {
	seed    int64
	seconds float64
	// scale multiplies every workload's row counts: 1 in every measured
	// run, less in the smoke test.
	scale    float64
	workers  int
	dir      string
	traced   bool
	traceOut string
	minReps  int
	// probeTuples is the layer probes' input size (65,536 in every
	// measured run; the smoke test shrinks it).
	probeTuples int
}

// sample is one (query or session, rep) reduced to the numbers the
// end-to-end metrics are computed from.
type sample struct {
	ttfe, acc float64 // ms
	total     float64 // s: call -> exact answer
	exec      float64 // s: exact baseline on the same plan
	gaps      []float64
	mallocs   uint64
	peak      int // bytes of operator state
	tuples    int
}

// rep is one timed repetition: a sample per query (serve: per session slot
// of one wave, plus the wave's period and summed state).
type rep struct {
	variant int // which engine-seed variant the rep ran (see seedVariants)
	samples []sample
	period  float64 // serve only: seconds between wave completions
	peak    int     // serve only: cohort state bytes incl. the shared cache
}

// outcome is what one workload run reports.
type outcome struct {
	Workload  string         `json:"workload"`
	Attempted int            `json:"attempted"`
	Failed    int            `json:"failed"`
	Failures  []string       `json:"failures,omitempty"`
	Reps      int            `json:"reps"`
	Samples   map[string]int `json:"samples"`
	// PerQuery holds each query's (serve: session slot's) median ttfe_ms,
	// total_s and exec_s, so a moved workload metric can be traced to the
	// query that moved it.
	PerQuery map[string]map[string]float64 `json:"per_query"`
	EndToEnd map[string]float64            `json:"-"`
	Spread   map[string]float64            `json:"-"`
	Layers   map[string]float64            `json:"-"`
	trace    *tracer
}

// report is the contract's result object for this run.
func (o *outcome) report(traced bool) report {
	rep := report{Correct: o.Failed == 0, Attempted: o.Attempted, Failed: o.Failed}
	if traced {
		rep.Metrics = fillPerLayer(o.Layers)
	} else {
		rep.Metrics = fillEndToEnd(o.EndToEnd)
	}
	return rep
}

// perQuery reduces the reps to each query's numbers: medians within a seed
// variant, averaged over the variants.
func perQuery(ds *dataset, reps []rep) map[string]map[string]float64 {
	out := map[string]map[string]float64{}
	groups := byVariant(reps)
	for j, q := range ds.queries {
		row := map[string]float64{}
		for _, g := range groups {
			var ttfe, total, exec []float64
			for _, r := range g {
				ttfe = append(ttfe, r.samples[j].ttfe)
				total = append(total, r.samples[j].total)
				exec = append(exec, r.samples[j].exec)
			}
			row["ttfe_ms"] += median(ttfe) / float64(len(groups))
			row["total_s"] += median(total) / float64(len(groups))
			row["exec_s"] += median(exec) / float64(len(groups))
		}
		out[q.id] = row
	}
	return out
}

// checker counts operations and remembers each query's reference digest.
type checker struct {
	attempted, failed int
	failures          []string
	digests           map[string]uint64
}

// op records one operation; any non-empty problem fails it.
func (c *checker) op(id string, problems ...string) {
	c.attempted++
	for _, p := range problems {
		if p != "" {
			c.failed++
			if len(c.failures) < 20 {
				c.failures = append(c.failures, id+": "+p)
			}
			return
		}
	}
}

// digestProblem compares a trajectory digest with the first one seen under
// the same key: reps, worker counts and layouts must all agree.
func (c *checker) digestProblem(key string, d uint64) string {
	if c.digests == nil {
		c.digests = map[string]uint64{}
	}
	if want, ok := c.digests[key]; ok && want != d {
		return fmt.Sprintf("trajectory digest %016x differs from reference %016x", d, want)
	}
	c.digests[key] = d
	return ""
}

// verify checks one online run: no error, final batch equal to the exact
// baseline, and (when digestKey is set) a trajectory digest equal to the
// reference for that key.
func (c *checker) verify(id string, r *run, want *rel.Relation, execErr error, digestKey string) {
	switch {
	case r.err != nil:
		c.op(id, r.err.Error())
	case execErr != nil:
		c.op(id, "exec: "+execErr.Error())
	default:
		final := r.updates[len(r.updates)-1]
		problem := ""
		if final.u.Batch != final.u.Batches {
			problem = fmt.Sprintf("stopped at batch %d of %d", final.u.Batch, final.u.Batches)
		} else if !rel.EqualBag(final.result, want, 1e-9) {
			problem = "final batch differs from exec over the full table"
		}
		digest := ""
		if digestKey != "" {
			digest = c.digestProblem(digestKey, r.digest())
		}
		c.op(id, problem, digest)
	}
}

// queryRep is one query's online run and exact baseline within a rep.
type queryRep struct {
	run  *run
	exec time.Duration
	want *rel.Relation // the exact baseline's result
}

func (qr queryRep) sample() sample {
	r := qr.run
	acc, _ := r.acc1pct()
	return sample{ttfe: ms(r.ttfe()), acc: ms(acc), total: r.total.Seconds(), exec: qr.exec.Seconds(),
		gaps: r.gaps(), mallocs: r.mallocs, peak: r.peakStateBytes(), tuples: r.q.rows}
}

// batchRunner runs the five in-process workloads.
type batchRunner struct {
	sp  spec
	cfg config
	ds  *dataset
	ck  *checker
	// tracedVariant is the seed variant the traced reps, the ablations and
	// the reconciliation run under (0, except on serve_cohort).
	tracedVariant int
}

// seedVariants is how many engine seeds the timed reps rotate through.
// Whether a nested query hits a §5.1 recovery — which can double its run
// time — depends on the bootstrap draws, so a run timed under one engine
// seed reports a coin flip. Rep i runs variant i mod seedVariants; every
// metric is computed per variant and averaged over the variants.
const seedVariants = 5

// engineSeed is core.Options.Seed of query j under a variant. Queries get
// distinct seeds so that queries with the same inner aggregate do not all
// recover (or not) together — except on serve_cohort, where the sessions of
// a wave share one seed so that they can share that aggregate's state.
func engineSeed(cfg config, sp spec, variant, j int) uint64 {
	if sp.serve {
		j = 0
	}
	return uint64(cfg.seed) + uint64(1000*variant+j)
}

func digestKey(variant int, q *query) string { return fmt.Sprintf("v%d/%s", variant, q.id) }

// query runs query j once under one seed variant: GC, the online run, GC,
// the exact baseline, then the checks (outside both timed regions). sameBits
// says the options promise the variant's reference trajectory, so the digest
// must match it. When the online run or the baseline returns an error the
// operation is counted as failed and leaves no sample: ok is false.
func (b *batchRunner) query(j int, opts core.Options, label string, variant int, sameBits bool, tr *tracer, counts bool) (qr queryRep, ok bool) {
	q := b.ds.queries[j]
	id := b.sp.name + "/" + q.name + "/" + label
	root := tr.begin("bench.query", id)
	opts.Seed = engineSeed(b.cfg, b.sp, variant, j)
	runtime.GC()
	r := runOnline(q, opts, id, tr, counts)
	runtime.GC()
	want, execTime, execErr := runExec(q, b.cfg.workers, id, tr)
	sp := tr.begin("bench.check", id)
	key := ""
	if sameBits {
		key = digestKey(variant, q)
	}
	b.ck.verify(id, r, want, execErr, key)
	tr.end(sp)
	tr.end(root)
	return queryRep{run: r, exec: execTime, want: want}, r.err == nil && execErr == nil
}

// rep runs every query of the workload once. complete is false when a query
// failed with an error; the caller times only complete reps.
func (b *batchRunner) rep(opts core.Options, label string, variant int, sameBits bool, tr *tracer, counts bool) (out []queryRep, complete bool) {
	complete = true
	for j := range b.ds.queries {
		qr, ok := b.query(j, opts, label, variant, sameBits, tr, counts)
		if !ok {
			complete = false
			continue
		}
		out = append(out, qr)
	}
	return out, complete
}

func toRep(qrs []queryRep, variant int) rep {
	r := rep{variant: variant, samples: make([]sample, len(qrs))}
	for i, qr := range qrs {
		r.samples[i] = qr.sample()
	}
	return r
}

func totalSeconds(qrs []queryRep) float64 {
	t := 0.0
	for _, qr := range qrs {
		t += qr.run.total.Seconds()
	}
	return t
}

// fill reduces the timed reps to the reported numbers. With no complete rep
// (every one had a failed operation) the run reports its counts only.
func (o *outcome) fill(ds *dataset, reps []rep, setups []float64, ck *checker) {
	o.Attempted, o.Failed, o.Failures = ck.attempted, ck.failed, ck.failures
	o.Reps = len(reps)
	if len(reps) == 0 {
		return
	}
	o.PerQuery = perQuery(ds, reps)
	o.EndToEnd, o.Spread, o.Samples = summarize(reps, setups)
}

func runBatch(sp spec, cfg config) (*outcome, error) {
	ds, setups, err := timedSetup(sp, cfg)
	if err != nil {
		return nil, err
	}
	b := &batchRunner{sp: sp, cfg: cfg, ds: ds, ck: &checker{}}
	base := core.Options{Workers: cfg.workers, Batches: sp.batches, Trials: sp.trials}

	// The discarded warm-up rep runs variant 0 at Workers=1, so its digests
	// are also the single-worker reference that variant's timed reps must
	// reproduce; the other variants are compared between their own reps.
	one := base
	one.Workers = 1
	b.rep(one, "warmup", 0, true, nil, false)

	out := &outcome{Workload: sp.name}
	var reps []rep
	if cfg.traced {
		// The traced run works under variant 0; its untraced reps are the
		// ones it interleaves with the traced ones.
		out.trace = newTracer()
		reps, out.Layers = b.traced(base, 0.4*cfg.seconds, out.trace)
		if err := writeTrace(cfg, out.trace); err != nil {
			return nil, err
		}
	} else {
		start := time.Now()
		for i := 0; ; i++ {
			elapsed := time.Since(start).Seconds()
			if i >= cfg.minReps && elapsed+0.5*elapsed/float64(i) > cfg.seconds {
				break
			}
			if qrs, complete := b.rep(base, fmt.Sprint("r", i), i%seedVariants, true, nil, false); complete {
				reps = append(reps, toRep(qrs, i%seedVariants))
			}
		}
	}
	out.fill(ds, reps, setups, b.ck)
	return out, nil
}

// minTracedPairs is the least number of (untraced, traced) rep pairs behind
// trace.overhead_pct and the stage spans; even, so each side goes first as
// often as the other.
const minTracedPairs = 4

// fastest keeps, per query and batch, the shortest receipt-to-receipt
// interval seen over a set of reps that repeat the same work bit for bit.
type fastest [][]float64

func (f *fastest) observe(qrs []queryRep) {
	if *f == nil {
		*f = make(fastest, len(qrs))
	}
	for j, qr := range qrs {
		prev := time.Duration(0)
		for k, d := range qr.run.updates {
			cell := (d.at - prev).Seconds()
			prev = d.at
			if k == len((*f)[j]) {
				(*f)[j] = append((*f)[j], cell)
			} else if cell < (*f)[j][k] {
				(*f)[j][k] = cell
			}
		}
	}
}

func (f fastest) total() float64 {
	t := 0.0
	for _, cells := range f {
		t += sum(cells)
	}
	return t
}

// traced produces the per-layer metrics: spans around the public calls,
// the engine's exported counters, one-option ablations, and the layer
// probes — all under one seed variant (b.tracedVariant). It returns that
// variant's untraced reps as well. Untraced and traced runs of each query
// alternate for budget seconds (at least minTracedPairs of each).
// trace.overhead_pct holds the traced runs against the untraced ones batch
// by batch: for every query and batch the fastest interval of each side,
// summed. The runs repeat the same work bit for bit and a shared host only
// ever adds time, so the minimum is the least disturbed execution of that
// batch, and it settles in a few reps where rep totals (+-5% here, for
// seconds at a time) would need dozens to resolve one percent.
func (b *batchRunner) traced(base core.Options, budget float64, tr *tracer) ([]rep, map[string]float64) {
	v := b.tracedVariant
	m := map[string]float64{}
	var plain []rep
	var first []queryRep
	var totals []float64
	var bestPlain, bestTraced fastest
	start := time.Now()
	for i := 0; i < minTracedPairs || time.Since(start).Seconds() < budget; i++ {
		// Query by query, so the two sides of a pair are neighbours in time;
		// the second of a pair finds the query's tables warm in the caches,
		// so the sides take turns at going first.
		var u, t []queryRep
		for j := range b.ds.queries {
			var qu, qt queryRep
			var okU, okT bool
			for _, side := range [2]int{i % 2, 1 - i%2} {
				if side == 0 {
					qu, okU = b.query(j, base, fmt.Sprint("u", i), v, true, nil, false)
				} else {
					qt, okT = b.query(j, base, fmt.Sprint("t", i), v, true, tr, true)
				}
			}
			if okU && okT {
				u, t = append(u, qu), append(t, qt)
			}
		}
		if len(u) < len(b.ds.queries) {
			continue
		}
		if first == nil {
			first = t
		}
		bestPlain.observe(u)
		bestTraced.observe(t)
		plain = append(plain, toRep(u, v))
		totals = append(totals, totalSeconds(u))
	}
	if len(plain) == 0 {
		return nil, m // failed operations only; the checker has them
	}
	untracedTotal := median(totals)
	spanMetrics(tr, len(plain), m)
	m["trace.overhead_pct"] = 100 * (bestTraced.total()/bestPlain.total() - 1)
	countMetrics(first, m)
	costMetrics(first, m)

	// Ablations: one rep each with one public option flipped, as ratios of
	// the untraced median total. NoVectorize and Workers=1 promise the same
	// bits, so they must reproduce the reference digests; the others
	// change the estimates and are checked on the final answer only.
	var single []queryRep
	for _, a := range []struct {
		metric, label string
		sameBits      bool
		flip          func(*core.Options)
	}{
		{"core.boot_share", "noboot", false, func(o *core.Options) { o.Trials = -1 }},
		{"core.vectorize_x", "novec", true, func(o *core.Options) { o.NoVectorize = true }},
		{"cluster.speedup_x", "w1", true, func(o *core.Options) { o.Workers = 1 }},
		{"core.hda_x", "hda", false, func(o *core.Options) { o.Mode = core.ModeHDA }},
		{"core.opt1_x", "opt1", false, func(o *core.Options) { o.Mode = core.ModeOPT1 }},
	} {
		o := base
		a.flip(&o)
		qrs, complete := b.rep(o, a.label, v, a.sameBits, nil, true)
		if !complete {
			continue
		}
		m[a.metric] = totalSeconds(qrs) / untracedTotal
		if a.label == "w1" {
			single = qrs // the reconciliation wants single-threaded work
		}
	}
	m["core.boot_share"] = 1 - m["core.boot_share"]

	probes := runProbes(b.ds, b.cfg)
	for k, v := range probes {
		m[k] = v
	}
	if single != nil {
		reconMetrics(single, b.sp.trials < 0, probes, m)
	}
	return plain, m
}

// writeTrace writes the run's spans where -trace-out says, if anywhere.
func writeTrace(cfg config, tr *tracer) error {
	if cfg.traceOut == "" {
		return nil
	}
	return tr.writeChrome(cfg.traceOut)
}

// spanMetrics folds the stage spans into metrics: each is summed over the
// workload's queries and averaged over the traced reps, so the stage
// metrics plus the driver's self time add up to the traced total.
func spanMetrics(tr *tracer, reps int, m map[string]float64) {
	n := float64(reps)
	us := func(name string) float64 { return float64(tr.sum(name).Nanoseconds()) / 1e3 / n }
	m["sql.parse_us"] = us("sql.parse")
	m["sql.plan_us"] = us("sql.plan")
	m["core.compile_ms"] = us("core.compile") / 1e3
	m["sql.postprocess_us"] = us("sql.postprocess")
	m["core.close_us"] = us("core.close")
	m["exec.run_ms"] = us("exec.run") / 1e3

	// Steps split by position: children of each iolap.run, in order.
	steps := map[int][]time.Duration{}
	for _, s := range tr.spans {
		if s.Name == "core.step" {
			steps[s.Parent] = append(steps[s.Parent], s.dur())
		}
	}
	var first, rest, last time.Duration
	for _, ds := range steps {
		for i, d := range ds {
			switch {
			case i == 0:
				first += d
			case i == len(ds)-1:
				last += d
			default:
				rest += d
			}
		}
	}
	m["core.step_first_ms"] = ms(first) / n
	m["core.step_rest_ms"] = ms(rest) / n
	m["core.step_last_ms"] = ms(last) / n

	self := tr.selfTimes()
	var runSelf, runDur time.Duration
	for i, s := range tr.spans {
		if s.Name == "iolap.run" {
			runSelf += self[i]
			runDur += s.dur()
		}
	}
	if runDur > 0 {
		m["bench.driver_self_pct"] = 100 * float64(runSelf) / float64(runDur)
	}
}

// countMetrics reads the exact counters of one rep: core.Update fields and
// the per-operator row counts collected from Engine.OpStats.
func countMetrics(qrs []queryRep, m map[string]float64) {
	var batchesTo1pct float64
	const mb = 1 << 20
	for _, qr := range qrs {
		r := qr.run
		m["core.rows_streamed"] += float64(r.q.rows)
		m["core.result_rows"] += float64(r.updates[len(r.updates)-1].result.Len())
		_, k := r.acc1pct()
		batchesTo1pct += float64(k)
		ndPeak := 0
		for _, d := range r.updates {
			u := d.u
			m["core.recomputed_rows"] += float64(u.Recomputed)
			m["core.recoveries"] += float64(u.Recoveries)
			if u.RecoveredFrom >= 0 {
				m["core.replay_batches"] += float64(u.Batch - u.RecoveredFrom)
			}
			if u.NDSetRows > ndPeak {
				ndPeak = u.NDSetRows
			}
			m["cluster.shuffle_mb"] += float64(u.ShuffleBytes) / mb
			m["cluster.broadcast_mb"] += float64(u.BroadcastBytes) / mb
		}
		m["core.ndset_rows_peak"] += float64(ndPeak)
		join, other := r.peakState()
		if v := float64(join) / mb; v > m["delta.join_state_peak_mb"] {
			m["delta.join_state_peak_mb"] = v
		}
		if v := float64(other) / mb; v > m["core.other_state_peak_mb"] {
			m["core.other_state_peak_mb"] = v
		}
		for _, op := range r.ops.ops {
			switch op.kind {
			case "scan":
				m["core.scan_rows_out"] += float64(op.news)
			case "select":
				m["core.select_rows_out"] += float64(op.news)
			case "join":
				m["core.join_rows_out"] += float64(op.news)
			case "aggregate":
				m["core.agg_rows_out"] += float64(op.news)
			}
			m["core.unc_rows_out"] += float64(op.unc)
		}
	}
	m["core.batches_to_1pct"] = batchesTo1pct / float64(len(qrs))
	m["core.recompute_ratio"] = m["core.recomputed_rows"] / m["core.rows_streamed"]
}

var costClasses = []struct {
	class  cluster.OpClass
	metric string
}{
	{cluster.CostScan, "cluster.cost_scan_ns_row"},
	{cluster.CostSelect, "cluster.cost_select_ns_row"},
	{cluster.CostProject, "cluster.cost_project_ns_row"},
	{cluster.CostJoinProbe, "cluster.cost_join_probe_ns_row"},
	{cluster.CostFold, "cluster.cost_fold_ns_row"},
	{cluster.CostSink, "cluster.cost_sink_ns_row"},
}

// costMetrics averages each engine-reported per-row cost over the queries
// that actually observed the class (a value still equal to the cold-start
// prior means no site of that class ran).
func costMetrics(qrs []queryRep, m map[string]float64) {
	prior := cluster.NewCostModel(0).Snapshot()
	for _, c := range costClasses {
		key := c.class.String()
		var seen []float64
		for _, qr := range qrs {
			if v := qr.run.cost[key]; v != prior[key] {
				seen = append(seen, v)
			}
		}
		if len(seen) > 0 {
			m[c.metric] = sum(seen) / float64(len(seen))
		}
	}
}
