package main

import (
	"bytes"
	"time"

	"iolap/internal/agg"
	"iolap/internal/bootstrap"
	"iolap/internal/cluster"
	"iolap/internal/delta"
	"iolap/internal/expr"
	"iolap/internal/plan"
	"iolap/internal/rel"
	"iolap/internal/share"
	"iolap/internal/storage"
)

// The layer probes time exported functions directly at one fixed shape, so
// a kernel's number can be held against the engine-reported per-row cost
// above it (recon.*). Inputs come from the workload's own fact table,
// cycled when it has fewer rows than the shape.
const (
	probeGroups = 64
	probeTrials = 100
	probeReps   = 7
	// probeSlabRows is the weight-slab height: the engine draws weights per
	// mini-batch, so the slab a fold reads is batch-sized, not table-sized.
	probeSlabRows = 4096
)

// timeMedian runs fn probeReps times and returns the median wall time in
// nanoseconds.
func timeMedian(fn func()) float64 {
	ds := make([]float64, probeReps)
	for i := range ds {
		start := time.Now()
		fn()
		ds[i] = float64(time.Since(start).Nanoseconds())
	}
	return median(ds)
}

// probeFixture is the fixed-shape input cut from the workload's tables.
type probeFixture struct {
	n       int           // tuples per probe
	fact    *rel.Relation // n rows of the fact table (cycled)
	valCol  int           // a float column
	keyCols []int         // an integer key column
	pred    expr.Expr     // a deterministic selection predicate over fact
	node    plan.Node     // a planned query, for the fingerprint probe

	vals, mults []float64
	slab        []float64
	groupRows   [][]int32 // per group: slab row of each tuple
	groupVals   [][]float64
	groupMults  [][]float64
}

func newProbeFixture(ds *dataset, probeTuples int) *probeFixture {
	table, val, key, predQuery := "lineorder", "l_extendedprice", "l_partkey", "Q6"
	if _, ok := ds.tables[table]; !ok {
		table, val, key, predQuery = "conviva_sessions", "play_time", "customer_id", "C11"
	}
	src := ds.tables[table]
	f := &probeFixture{n: probeTuples, fact: rel.NewRelation(src.Schema)}
	f.fact.Tuples = make([]rel.Tuple, probeTuples)
	for i := range f.fact.Tuples {
		f.fact.Tuples[i] = src.Tuples[i%src.Len()]
	}
	f.valCol = src.Schema.MustResolve("", val)
	f.keyCols = []int{src.Schema.MustResolve("", key)}

	// The predicate and plan come from a query of the same dataset.
	w := ds.queries[0].wl
	for _, q := range ds.queries {
		if q.stream == table {
			w = q.wl
		}
	}
	if wq, ok := w.Query(predQuery); ok {
		if node, _, err := w.Plan(wq); err == nil {
			f.node = node
			plan.Walk(node, func(n plan.Node) {
				if s, ok := n.(*plan.Select); ok && f.pred == nil {
					f.pred = s.Pred
				}
			})
		}
	}

	f.vals = make([]float64, probeTuples)
	f.mults = make([]float64, probeTuples)
	f.groupRows = make([][]int32, probeGroups)
	f.groupVals = make([][]float64, probeGroups)
	f.groupMults = make([][]float64, probeGroups)
	for i, tp := range f.fact.Tuples {
		f.vals[i] = tp.Vals[f.valCol].Float()
		f.mults[i] = 1
		g := i % probeGroups
		f.groupRows[g] = append(f.groupRows[g], int32(i%probeSlabRows))
		f.groupVals[g] = append(f.groupVals[g], f.vals[i])
		f.groupMults[g] = append(f.groupMults[g], 1)
	}
	f.slab = make([]float64, probeSlabRows*probeTrials)
	src2 := bootstrap.NewPoissonSource(42, probeTrials)
	for i := 0; i < probeSlabRows; i++ {
		src2.WeightsInto(uint64(i), f.slab[i*probeTrials:(i+1)*probeTrials])
	}
	return f
}

// runProbes returns the layer-probe metrics.
func runProbes(ds *dataset, cfg config) map[string]float64 {
	f := newProbeFixture(ds, cfg.probeTuples)
	m := map[string]float64{}
	probeAgg(f, m)
	probeBootstrap(f, m)
	probeDelta(f, m)
	probeRelExpr(f, m)
	probeStorage(f, m)
	probeClusterShare(f, cfg, m)
	return m
}

func probeAgg(f *probeFixture, m map[string]float64) {
	reg := agg.NewRegistry()
	vectors := func(name string, trials int) []*agg.Vector {
		fn, _ := reg.Lookup(name)
		vs := make([]*agg.Vector, probeGroups)
		for i := range vs {
			vs[i] = agg.NewVector(fn, trials)
		}
		return vs
	}
	for _, k := range []struct{ fn, metric string }{
		{"SUM", "agg.add_batch_sum_ns_tuple"},
		{"AVG", "agg.add_batch_avg_ns_tuple"},
		{"VAR", "agg.add_batch_var_ns_tuple"},
		{"MIN", "agg.add_batch_min_ns_tuple"},
	} {
		vs := vectors(k.fn, probeTrials)
		m[k.metric] = timeMedian(func() {
			for g, v := range vs {
				v.Reset()
				v.AddBatch(f.groupVals[g], f.groupMults[g], f.slab, f.groupRows[g])
			}
		}) / float64(f.n)
	}
	// The two B=0 folds: the columnar main-only kernel and the per-row Add.
	mains := vectors("SUM", 0)
	m["agg.add_batch_main_ns_tuple"] = timeMedian(func() {
		for g, v := range mains {
			v.Reset()
			v.AddBatchMain(f.groupVals[g], f.groupMults[g])
		}
	}) / float64(f.n)
	m["agg.add_row_sum_ns_tuple"] = timeMedian(func() {
		for _, v := range mains {
			v.Reset()
		}
		for i, x := range f.vals {
			mains[i%probeGroups].Add(x, 1, nil)
		}
	}) / float64(f.n)

	// Snapshot / restore of B=100 group state, as §5.1 recovery takes it.
	vs := vectors("AVG", probeTrials)
	for g, v := range vs {
		v.AddBatch(f.groupVals[g], f.groupMults[g], f.slab, f.groupRows[g])
	}
	snaps := make([]*agg.VectorSnap, probeGroups)
	const rounds = 64
	m["agg.snapshot_ns_group"] = timeMedian(func() {
		for r := 0; r < rounds; r++ {
			for g, v := range vs {
				snaps[g] = v.SnapshotInto(snaps[g])
			}
		}
	}) / (rounds * probeGroups)
	m["agg.restore_ns_group"] = timeMedian(func() {
		for r := 0; r < rounds; r++ {
			for g, v := range vs {
				snaps[g].RestoreInto(v)
			}
		}
	}) / (rounds * probeGroups)
}

func probeBootstrap(f *probeFixture, m map[string]float64) {
	src := bootstrap.NewPoissonSource(7, probeTrials)
	dst := make([]float64, probeTrials)
	weightTuples := f.n / 4 // ~2 us per tuple: a quarter is plenty
	m["bootstrap.weights_ns_tuple"] = timeMedian(func() {
		for i := 0; i < weightTuples; i++ {
			src.WeightsInto(uint64(i), dst)
		}
	}) / float64(weightTuples)

	// One cell = one value with its B replicates, as the sink summarises.
	const cells = 4096
	reps := make([]float64, probeTrials)
	var scratch []float64
	m["bootstrap.summarize_ns_cell"] = timeMedian(func() {
		for c := 0; c < cells; c++ {
			for b := range reps {
				reps[b] = f.vals[(c*probeTrials+b)%f.n]
			}
			_, scratch = bootstrap.SummarizeInto(f.vals[c], reps, scratch)
		}
	}) / cells

	// A converging estimate observed over 20 batches, 512 ranges at a time.
	const ranges, batches = 512, 20
	m["bootstrap.range_observe_ns"] = timeMedian(func() {
		for r := 0; r < ranges; r++ {
			rg := bootstrap.NewRange(2.0)
			for b := 1; b <= batches; b++ {
				for i := range reps {
					reps[i] = 100 + float64(i%7-3)/float64(b)
				}
				rg.Observe(b, 100, reps)
			}
		}
	}) / (ranges * batches)
}

func probeDelta(f *probeFixture, m map[string]float64) {
	rows := make([]delta.Row, f.n)
	for i, tp := range f.fact.Tuples {
		rows[i] = delta.Row{Vals: tp.Vals, Mult: 1}
	}
	pool := cluster.NewPool(1)
	var store *delta.HashStore
	m["delta.add_batch_ns_row"] = timeMedian(func() {
		store = delta.NewHashStore(f.keyCols)
		store.AddBatch(rows, false, pool)
	}) / float64(f.n)

	hits := 0
	m["delta.probe_hit_ns_row"] = timeMedian(func() {
		for _, tp := range f.fact.Tuples {
			hits += len(store.Probe(tp.Vals, f.keyCols))
		}
	}) / float64(f.n)
	miss := make([][]rel.Value, 1024)
	for i := range miss {
		miss[i] = []rel.Value{rel.Int(int64(-1 - i))}
	}
	m["delta.probe_miss_ns_row"] = timeMedian(func() {
		for i := 0; i < f.n; i++ {
			hits += len(store.Probe(miss[i%len(miss)], []int{0}))
		}
	}) / float64(f.n)

	var snap *delta.HashSnap
	m["delta.snapshot_us"] = timeMedian(func() { snap = store.Snapshot() }) / 1e3
	m["delta.restore_us"] = timeMedian(func() { store.Restore(snap) }) / 1e3

	// Spill: evict a whole store to an in-memory file system, then probe it
	// cold. MemFS keeps the probe about the codec and index, not a disk; a
	// smaller store keeps the probe short (eviction runs at a few MB/s).
	spillRows, spillProbes := min(8192, f.n), min(1024, f.n)
	var evictNs, probeNs []float64
	var bytesOut float64
	for r := 0; r < 3; r++ {
		var metrics cluster.Metrics
		policy := delta.NewSpillPolicy(-1, storage.NewMemFS(), &metrics)
		spilled := delta.NewHashStore(f.keyCols)
		policy.Register(spilled)
		policy.Advance(1)
		spilled.AddBatch(rows[:spillRows], false, pool)
		start := time.Now()
		err := policy.Enforce()
		evictNs = append(evictNs, float64(time.Since(start).Nanoseconds()))
		if err != nil {
			break
		}
		bytesOut = float64(metrics.SpillBytesWritten())
		start = time.Now()
		for i := 0; i < spillProbes; i++ {
			hits += len(spilled.Probe(f.fact.Tuples[i].Vals, f.keyCols))
		}
		probeNs = append(probeNs, float64(time.Since(start).Nanoseconds())/float64(spillProbes))
		policy.Close()
	}
	if ns := median(evictNs); ns > 0 {
		m["delta.spill_evict_mb_s"] = bytesOut / (1 << 20) / (ns / 1e9)
	}
	m["delta.spill_probe_ns_row"] = median(probeNs)
	sink(hits)
}

func probeRelExpr(f *probeFixture, m map[string]float64) {
	var cols *rel.Columns
	m["rel.to_columns_ns_row"] = timeMedian(func() {
		cols = rel.ToColumns(f.fact.Schema, f.fact.Tuples)
	}) / float64(f.n)
	var kb [96]byte
	n := 0
	m["rel.encode_key_ns_row"] = timeMedian(func() {
		for _, tp := range f.fact.Tuples {
			n += len(rel.EncodeKeyInto(kb[:0], tp.Vals, f.keyCols))
		}
	}) / float64(f.n)
	m["rel.columns_encode_key_ns_row"] = timeMedian(func() {
		for i := 0; i < f.n; i++ {
			n += len(cols.EncodeKeyInto(kb[:0], i, f.keyCols))
		}
	}) / float64(f.n)

	if f.pred != nil {
		if vec, ok := expr.CompileVec(f.pred); ok {
			pass := make([]bool, f.n)
			m["expr.select_vec_ns_row"] = timeMedian(func() {
				vec.EvalCols(cols, 0, f.n, pass)
			}) / float64(f.n)
		}
		m["expr.select_row_ns_row"] = timeMedian(func() {
			for _, tp := range f.fact.Tuples {
				if f.pred.Eval(tp.Vals, nil).Bool() {
					n++
				}
			}
		}) / float64(f.n)
	}
	sink(n)
}

func probeStorage(f *probeFixture, m map[string]float64) {
	const mb = 1 << 20
	block := storage.DefaultBlockRows
	var blocks [][]byte
	encoded := 0
	encNs := timeMedian(func() {
		blocks, encoded = blocks[:0], 0
		for lo := 0; lo < f.n; lo += block {
			b, err := storage.EncodeBlock(nil, f.fact.Schema, f.fact.Tuples[lo:lo+block], false)
			if err != nil {
				return
			}
			blocks = append(blocks, b)
			encoded += len(b)
		}
	})
	m["storage.block_encode_mb_s"] = float64(encoded) / mb / (encNs / 1e9)
	rows := 0
	decNs := timeMedian(func() {
		for _, b := range blocks {
			tuples, _ := storage.DecodeBlock(b, f.fact.Schema)
			rows += len(tuples)
		}
	})
	m["storage.block_decode_mb_s"] = float64(encoded) / mb / (decNs / 1e9)

	// The spill-row codec carries the B=100 weights with each row.
	w := f.slab[:probeTrials]
	spillRows := min(8192, f.n)
	var buf []byte
	m["storage.spill_row_encode_ns"] = timeMedian(func() {
		buf = buf[:0]
		for i := 0; i < spillRows; i++ {
			buf, _ = storage.AppendSpillRow(buf, f.fact.Tuples[i].Vals, 1, w)
		}
	}) / float64(spillRows)
	m["storage.spill_row_decode_ns"] = timeMedian(func() {
		rest := buf
		for len(rest) > 0 {
			_, _, _, n, err := storage.DecodeSpillRow(rest)
			if err != nil {
				return
			}
			rest = rest[n:]
			rows++
		}
	}) / float64(spillRows)

	var file bytes.Buffer
	writeNs := timeMedian(func() {
		file.Reset()
		storage.WriteColumnar(&file, f.fact, 0, false)
	})
	size := float64(file.Len()) / mb
	m["storage.iol_write_mb_s"] = size / (writeNs / 1e9)
	readNs := timeMedian(func() {
		if t, err := storage.Read(bytes.NewReader(file.Bytes())); err == nil {
			rows += t.Rel.Len()
		}
	})
	m["storage.iol_read_mb_s"] = size / (readNs / 1e9)
	sink(rows)
}

func probeClusterShare(f *probeFixture, cfg config, m map[string]float64) {
	pool := cluster.NewPool(cfg.workers)
	const dispatches = 2000
	m["cluster.map_dispatch_us"] = timeMedian(func() {
		for i := 0; i < dispatches; i++ {
			pool.Map(cfg.workers, func(int) {})
		}
	}) / dispatches / 1e3
	n := 0
	m["cluster.partition_by_key_ns_row"] = timeMedian(func() {
		n += len(cluster.PartitionByKey(f.fact, f.keyCols, 8))
	}) / float64(f.n)

	if f.node != nil {
		const prints = 500
		m["share.fingerprint_us"] = timeMedian(func() {
			for i := 0; i < prints; i++ {
				n += len(share.Fingerprint(f.node))
			}
		}) / prints / 1e3
	}
	cache := share.NewCache()
	build := func() (interface{}, error) { return 1, nil }
	_, hold, _, _ := cache.Acquire("k", build)
	const acquires = 20000
	m["share.acquire_hit_ns"] = timeMedian(func() {
		for i := 0; i < acquires; i++ {
			if _, release, _, err := cache.Acquire("k", build); err == nil {
				release()
			}
		}
	}) / acquires
	hold()
	sink(n)
}

var sinkValue int

// sink keeps a probe's result alive so the compiler cannot drop the loop.
func sink(n int) { sinkValue += n }
