package main

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"sync"
	"time"

	"iolap/internal/core"
	"iolap/internal/exec"
	"iolap/internal/rel"
	"iolap/internal/serve"
)

// session is one remote session as its consumer goroutine saw it; every
// timestamp is taken at receipt.
type session struct {
	slot     int
	openSent time.Time
	openOK   time.Time
	recv     []time.Time
	updates  []*serve.Update
	err      error
}

// wave is one cohort of sessions, one per workload query.
type wave struct {
	label    string
	variant  int // engine-seed variant of every session in the wave
	sessions []*session
	first    sync.WaitGroup // released when every session has its first estimate
	done     sync.WaitGroup // released when every session's stream has ended
}

func (w *wave) completed() time.Time {
	var t time.Time
	for _, s := range w.sessions {
		if n := len(s.recv); n > 0 && s.recv[n-1].After(t) {
			t = s.recv[n-1]
		}
	}
	return t
}

// server is the system under test: a serving engine behind a TCP listener
// on the loopback interface, and the one client connection driving it.
type server struct {
	srv    *serve.Server
	client *serve.Client
}

func startServer(ds *dataset, sp spec) (*server, error) {
	q := ds.queries[0]
	db := exec.NewDB()
	for name, r := range q.wl.Tables {
		db.Put(name, r)
	}
	eng := serve.NewEngine(db, map[string]bool{q.stream: true}, q.wl.Funcs, q.wl.Aggs,
		serve.Config{Batches: sp.batches})
	srv, addr, err := serve.ListenAndServe("127.0.0.1:0", eng)
	if err != nil {
		eng.Close()
		return nil, err
	}
	client, err := serve.Dial(addr.String())
	if err != nil {
		srv.Close()
		return nil, err
	}
	return &server{srv: srv, client: client}, nil
}

func (s *server) close() {
	s.client.Close()
	s.srv.Close()
}

// openWave opens one session per query over the shared connection and
// starts a consumer per session that timestamps every estimate at receipt.
func (s *server) openWave(ds *dataset, sp spec, cfg config, label string, variant int) *wave {
	w := &wave{label: label, variant: variant}
	for slot, q := range ds.queries {
		ss := &session{slot: slot}
		w.sessions = append(w.sessions, ss)
		ss.openSent = time.Now()
		cs, err := s.client.Open(q.sql, serve.SessionOptions{Stream: q.stream, Seed: engineSeed(cfg, sp, variant, slot), Workers: 1})
		ss.openOK = time.Now()
		if err != nil {
			ss.err = err
			continue
		}
		w.first.Add(1)
		w.done.Add(1)
		go func() {
			defer w.done.Done()
			for cs.Next() {
				ss.recv = append(ss.recv, time.Now())
				ss.updates = append(ss.updates, cs.Update())
				if len(ss.recv) == 1 {
					w.first.Done()
				}
			}
			if len(ss.recv) == 0 {
				w.first.Done()
			}
			ss.err = cs.Err()
		}()
	}
	return w
}

func (s *session) digest() uint64 {
	h := fnv.New64a()
	for _, u := range s.updates {
		digestUpdate(h, u.Result, u.Estimates)
	}
	return h.Sum64()
}

// sample reduces a finished session to the end-to-end numbers; exec is the
// exact baseline of the same query.
func (s *session) sample(rows int, exec float64) sample {
	out := sample{ttfe: ms(s.recv[0].Sub(s.openSent)), exec: exec, tuples: rows}
	out.total = s.recv[len(s.recv)-1].Sub(s.openSent).Seconds()
	accurate := firstAccurate(len(s.updates), func(i int) float64 { return s.updates[i].MaxRelStdev() })
	out.acc = ms(s.recv[accurate].Sub(s.openSent))
	for i := 1; i < len(s.recv); i++ {
		out.gaps = append(out.gaps, ms(s.recv[i].Sub(s.recv[i-1])))
	}
	return out
}

// verifyWave checks every session of a finished wave as one operation:
// it completed, its final batch equals the exact result, and its trajectory
// equals the solo run's, bit for bit. complete is false when a session
// ended early: such a wave is counted, not timed.
func verifyWave(ck *checker, sp spec, ds *dataset, w *wave, want []*rel.Relation) (complete bool) {
	// want is the exact answer; it does not depend on the seed variant.
	complete = true
	for _, s := range w.sessions {
		q := ds.queries[s.slot]
		id := sp.name + "/" + q.name + "/" + w.label
		switch {
		case s.err != nil:
			ck.op(id, s.err.Error())
			complete = false
		case len(s.updates) != sp.batches:
			ck.op(id, fmt.Sprintf("%d of %d estimates", len(s.updates), sp.batches))
			complete = false
		default:
			problem := ""
			if !rel.EqualBag(s.updates[len(s.updates)-1].Result, want[s.slot], 1e-9) {
				problem = "final batch differs from exec over the full table"
			}
			ck.op(id, problem, ck.digestProblem(digestKey(w.variant, q), s.digest()))
		}
	}
	return complete
}

// recoveries counts the §5.1 recoveries of a rep's online runs.
func recoveries(qrs []queryRep) int {
	n := 0
	for _, qr := range qrs {
		for _, d := range qr.run.updates {
			n += d.u.Recoveries
		}
	}
	return n
}

// cohortPeak is the wave's state high-water mark: the most its sessions
// held together after any one batch.
func (w *wave) cohortPeak() int {
	peak := 0
	for b := 0; ; b++ {
		total, any := 0, false
		for _, s := range w.sessions {
			if b < len(s.updates) {
				total += s.updates[b].StateBytes
				any = true
			}
		}
		if !any {
			return peak
		}
		if total > peak {
			peak = total
		}
	}
}

// runServe drives serve_cohort: a closed loop of pipelined waves. Each wave
// opens one session per query; the next wave is opened once the current one
// has delivered its first estimates, so every measured wave waits out one
// pass and then runs as one full cohort. Free-running clients split into
// cohorts of varying size and were bimodal.
func runServe(sp spec, cfg config) (*outcome, error) {
	// The client-side spans are built from receipt timestamps after the
	// waves end, so the tracer's epoch must precede them.
	tr := newTracer()
	var ds *dataset
	var sv *server
	var setups []float64
	for i := 0; i < setupRuns(cfg); i++ {
		if sv != nil {
			sv.close()
		}
		runtime.GC()
		start := time.Now()
		d, err := setup(sp, cfg.seed, cfg.scale, cfg.dir)
		if err != nil {
			return nil, err
		}
		if sv, err = startServer(d, sp); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		ds = d
	}
	setups = timedSetups(setups)
	defer sv.close()

	// Solo runs of the same queries on the same schedule. The sessions run
	// under the first seed variant whose solo trajectories have no §5.1
	// recovery: a recovery stalls the whole cohort at the batch barrier and
	// delays the next wave, so with one the tails here would measure the
	// core's recoveries (nested_unc does that) and not the serving layer.
	// The Workers=1 warm-up that looks for that variant also fixes its
	// reference digests; seven timed reps (a fifth of a second each) give the
	// exact baselines and the solo totals the sessions are held against.
	b := &batchRunner{sp: sp, cfg: cfg, ds: ds, ck: &checker{}}
	out := &outcome{Workload: sp.name}
	base := core.Options{Workers: cfg.workers, Batches: sp.batches}
	one := base
	one.Workers = 1
	const candidates = 8
	variant := 0
	for ; ; variant++ {
		qrs, complete := b.rep(one, fmt.Sprint("warmup", variant), variant, true, nil, false)
		if (complete && recoveries(qrs) == 0) || variant == candidates-1 {
			break
		}
	}
	b.tracedVariant = variant
	var solo []rep
	want := make([]*rel.Relation, len(ds.queries))
	for i := 0; i < 7; i++ {
		qrs, complete := b.rep(base, fmt.Sprint("solo", i), variant, true, nil, false)
		if !complete {
			continue
		}
		solo = append(solo, toRep(qrs, variant))
		for j, qr := range qrs {
			want[j] = qr.want
		}
	}
	if len(solo) == 0 {
		// No exact answer to hold the sessions against: the failed solo
		// runs are the result.
		out.fill(ds, nil, setups, b.ck)
		return out, nil
	}
	execOf := make([]float64, len(ds.queries))
	soloTotal := make([]float64, len(ds.queries))
	soloMedians := perQuery(ds, solo)
	for j, q := range ds.queries {
		execOf[j], soloTotal[j] = soloMedians[q.id]["exec_s"], soloMedians[q.id]["total_s"]
	}

	budget := cfg.seconds
	if cfg.traced {
		budget = cfg.seconds * 0.3
	}
	var ms0, ms1 runtime.MemStats
	var waves []*wave
	runtime.GC()
	cur := sv.openWave(ds, sp, cfg, "warmup", variant)
	cur.first.Wait()
	var start time.Time
	var prevDone time.Time
	var reps []rep
	for i := 0; ; i++ {
		next := sv.openWave(ds, sp, cfg, fmt.Sprint("w", i), variant)
		cur.done.Wait()
		complete := verifyWave(b.ck, sp, ds, cur, want)
		if i == 0 {
			// The warm-up wave has ended: the measured window starts here.
			runtime.ReadMemStats(&ms0)
			start = time.Now()
		} else if complete {
			waves = append(waves, cur)
			r := rep{variant: cur.variant, period: cur.completed().Sub(prevDone).Seconds(),
				peak: cur.cohortPeak() + int(sv.srv.Engine().SharedPeakBytes())}
			for _, s := range cur.sessions {
				r.samples = append(r.samples, s.sample(ds.queries[s.slot].rows, execOf[s.slot]))
			}
			reps = append(reps, r)
		}
		prevDone = cur.completed()
		cur = next
		cur.first.Wait()
		// i counts the waves checked since the warm-up, timed or not.
		if i >= cfg.minReps && time.Since(start).Seconds() >= budget {
			break
		}
	}
	runtime.ReadMemStats(&ms1)
	// The last opened wave is a cool-down: it keeps the final measured wave
	// running beside an open like every other, and is checked, not timed.
	cur.done.Wait()
	verifyWave(b.ck, sp, ds, cur, want)

	// Allocation is process-wide here (server, wire and client together),
	// spread evenly over the measured waves.
	for i := range reps {
		reps[i].samples[0].mallocs = (ms1.Mallocs - ms0.Mallocs) / uint64(len(reps))
	}

	if cfg.traced && len(reps) > 0 {
		_, layers := b.traced(base, 0.2*cfg.seconds, tr)
		serveMetrics(sv, waves, soloTotal, sp, tr, layers)
		if err := writeTrace(cfg, tr); err != nil {
			return nil, err
		}
		out.Layers, out.trace = layers, tr
	}
	out.fill(ds, reps, setups, b.ck)
	return out, nil
}

// serveMetrics adds the serving layer's numbers: client-side spans built
// from the receipt timestamps, and the engine's own counters.
func serveMetrics(sv *server, waves []*wave, soloTotal []float64, sp spec, tr *tracer, m map[string]float64) {
	var rtt, wait []float64
	stream := make([][]float64, len(soloTotal))
	for _, w := range waves {
		for _, s := range w.sessions {
			id := sp.name + "/slot" + fmt.Sprint(s.slot) + "/" + w.label
			last := s.recv[len(s.recv)-1]
			root := tr.add("serve.session", id, s.openSent, last, -1, 2+s.slot)
			tr.add("serve.open", id, s.openSent, s.openOK, root, 2+s.slot)
			tr.add("serve.pass_wait", id, s.openOK, s.recv[0], root, 2+s.slot)
			tr.add("serve.stream", id, s.recv[0], last, root, 2+s.slot)
			rtt = append(rtt, ms(s.openOK.Sub(s.openSent)))
			wait = append(wait, ms(s.recv[0].Sub(s.openOK)))
			// The streaming phase covers batches 2..p; scale it to p batches
			// to hold it against the solo run of the whole query.
			p := float64(len(s.recv))
			stream[s.slot] = append(stream[s.slot], last.Sub(s.recv[0]).Seconds()*p/(p-1))
		}
	}
	m["serve.open_rtt_ms"] = median(rtt)
	m["serve.pass_wait_ms"] = median(wait)
	var slow []float64
	for slot, xs := range stream {
		slow = append(slow, median(xs)/soloTotal[slot])
	}
	m["serve.slowdown_x"] = geomean(slow)
	st := sv.srv.Engine().Snapshot()
	const mb = 1 << 20
	m["serve.shared_hits"] = float64(st.SharedStateHits)
	m["serve.shared_saved_mb"] = float64(st.SharedStateBytesSaved) / mb
	m["serve.shared_peak_mb"] = float64(sv.srv.Engine().SharedPeakBytes()) / mb
	m["serve.completed"] = float64(st.Completed)
	m["serve.rejected"] = float64(st.Rejected)
}
