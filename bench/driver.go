package main

import (
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"runtime"
	"time"

	"iolap/internal/bootstrap"
	"iolap/internal/core"
	"iolap/internal/exec"
	"iolap/internal/rel"
	"iolap/internal/sql"
)

// delivered is one update as the consumer saw it.
type delivered struct {
	at     time.Duration // receipt time, measured from the query call
	result *rel.Relation
	ests   [][]bootstrap.Estimate
	u      *core.Update
}

// opTotal is one online operator's emitted rows, summed over batches.
type opTotal struct {
	kind      string
	news, unc int
}

// opCounts holds the operators in Engine.OpStats order (bottom-up, i.e.
// post-order of the online plan).
type opCounts struct {
	ops []opTotal
}

// run is one online execution of one query.
type run struct {
	q       *query
	updates []delivered
	total   time.Duration // call -> exact answer received
	mallocs uint64
	cost    map[string]float64
	ops     opCounts
	err     error
}

func (r *run) ttfe() time.Duration { return r.updates[0].at }

// firstAccurate is the index of the first of n updates whose worst relative
// standard deviation is at or below 1%, or of the last one (the exact
// answer, which has no error bars).
func firstAccurate(n int, maxRelStdev func(i int) float64) int {
	for i := 0; i < n-1; i++ {
		if rs := maxRelStdev(i); rs > 0 && rs <= 0.01 {
			return i
		}
	}
	return n - 1
}

// acc1pct is the receipt time and the batch number of the first update that
// is accurate to 1% (see firstAccurate).
func (r *run) acc1pct() (time.Duration, int) {
	i := firstAccurate(len(r.updates), func(i int) float64 { return r.updates[i].u.MaxRelStdev() })
	return r.updates[i].at, i + 1
}

// gaps are the intervals between consecutive updates (batches 2..p).
func (r *run) gaps() []float64 {
	out := make([]float64, 0, len(r.updates))
	for i := 1; i < len(r.updates); i++ {
		out = append(out, ms(r.updates[i].at-r.updates[i-1].at))
	}
	return out
}

func (r *run) peakState() (join, other int) {
	for _, d := range r.updates {
		if d.u.JoinStateBytes > join {
			join = d.u.JoinStateBytes
		}
		if d.u.OtherStateBytes > other {
			other = d.u.OtherStateBytes
		}
	}
	return join, other
}

func (r *run) peakStateBytes() int {
	peak := 0
	for _, d := range r.updates {
		if s := d.u.JoinStateBytes + d.u.OtherStateBytes; s > peak {
			peak = s
		}
	}
	return peak
}

// digest is FNV-1a over every value and estimate of every update: the
// trajectory fingerprint compared between reps and worker counts.
func (r *run) digest() uint64 {
	h := fnv.New64a()
	for _, d := range r.updates {
		digestUpdate(h, d.result, d.ests)
	}
	return h.Sum64()
}

func digestUpdate(h io.Writer, result *rel.Relation, ests [][]bootstrap.Estimate) {
	var buf [8]byte
	f := func(x float64) {
		b := math.Float64bits(x)
		for i := range buf {
			buf[i] = byte(b >> (8 * i))
		}
		h.Write(buf[:])
	}
	for _, tp := range result.Tuples {
		for _, v := range tp.Vals {
			if v.IsNumeric() {
				f(v.Float())
			} else {
				h.Write([]byte(v.String()))
			}
		}
	}
	for _, row := range ests {
		for _, e := range row {
			f(e.Value)
			f(e.Stdev)
			f(e.CILo)
			f(e.CIHi)
			f(e.RelStd)
		}
	}
}

// runOnline drives one query through the call sequence of
// iolap.Session.Query / Cursor.Next — Parse, Plan, NewEngine, Step per
// batch with ApplyWithEstimates per update, Close — while a consumer
// goroutine timestamps each update at receipt. tr may be nil (untraced);
// counts makes the run read OpStats after every batch.
func runOnline(q *query, opts core.Options, id string, tr *tracer, counts bool) *run {
	r := &run{q: q}
	ch := make(chan delivered)
	done := make(chan struct{})
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)

	start := time.Now()
	go func() {
		defer close(done)
		for d := range ch {
			d.at = time.Since(start)
			r.updates = append(r.updates, d)
		}
	}()
	root := tr.begin("iolap.run", id)
	r.err = func() error {
		sp := tr.begin("sql.parse", id)
		stmt, err := sql.Parse(q.sql)
		tr.end(sp)
		if err != nil {
			return err
		}
		sp = tr.begin("sql.plan", id)
		node, pp, err := sql.NewPlanner(q.cat, q.wl.Funcs, q.wl.Aggs).Plan(stmt)
		tr.end(sp)
		if err != nil {
			return err
		}
		sp = tr.begin("core.compile", id)
		eng, err := core.NewEngine(node, q.db, opts)
		tr.end(sp)
		if err != nil {
			return err
		}
		for !eng.Done() {
			sp = tr.begin("core.step", id)
			u, err := eng.Step()
			tr.end(sp)
			if err != nil {
				eng.Close()
				return err
			}
			sp = tr.begin("sql.postprocess", id)
			result, ests := pp.ApplyWithEstimates(u.Result, u.Estimates)
			tr.end(sp)
			ch <- delivered{result: result, ests: ests, u: u}
			if counts {
				r.ops.add(eng.OpStats())
			}
		}
		r.cost = eng.CostSnapshot()
		sp = tr.begin("core.close", id)
		err = eng.Close()
		tr.end(sp)
		return err
	}()
	close(ch)
	<-done
	tr.end(root)
	if n := len(r.updates); n > 0 {
		r.total = r.updates[n-1].at
	}
	runtime.ReadMemStats(&ms1)
	r.mallocs = ms1.Mallocs - ms0.Mallocs
	if r.err == nil && len(r.updates) == 0 {
		r.err = fmt.Errorf("%s: no updates", q.id)
	}
	return r
}

func (c *opCounts) add(stats []core.OpStat) {
	if c.ops == nil {
		c.ops = make([]opTotal, len(stats))
		for i, s := range stats {
			c.ops[i].kind = s.Kind
		}
	}
	for i, s := range stats {
		c.ops[i].news += s.News
		c.ops[i].unc += s.Unc
	}
}

// runExec is the exact one-shot baseline on the same tables.
func runExec(q *query, workers int, id string, tr *tracer) (*rel.Relation, time.Duration, error) {
	sp := tr.begin("exec.run", id)
	start := time.Now()
	out, err := exec.RunWorkers(q.execPlan, q.db, workers)
	if err == nil {
		out = q.execPP.Apply(out)
	}
	d := time.Since(start)
	tr.end(sp)
	return out, d, err
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
