// Batched ingest: the one way a run of inputs enters a Vector. The aggregate
// operator (DESIGN.md §10) gathers, per (group, aggregate) pair, the run of
// entries a batch holds for it — value, multiplicity, the row's Poisson
// weight window and, for an uncertain argument, its per-replicate inputs —
// and folds the run in one call, so the per-call dispatch and slot
// arithmetic amortise across the run and the inner loops stay in registers
// across tuples.
//
// Bit-identity: AddBatchRun performs, per accumulator slot, exactly the
// floating-point operations of calling AddRep(vals[j], reps[j], mults[j],
// ws[j]) for j in order. Tuples are folded outer-loop-in-order and
// replicates inner, the same nesting as the per-tuple path, so every slot
// sees the same operand sequence. The structural liberties all leave each
// slot's own sequence unchanged: mains fold in a separate pass, the
// replicate dimension may be split across workers (every slot is an
// independent accumulator), and MIN/MAX may switch to a lean
// conditional-store loop once every replicate in the window is set — the
// flag is then invariant, so the dropped check and the unconditional store
// cannot change a value.
package agg

// batchTile bounds how many entries the sequential ingest hands to each
// mains+replicates pass pair, so the second pass re-reads vals/mults from
// L1 instead of memory. Tiling cannot affect bit-identity: each slot still
// sees every entry in run order, only the interleaving across slots moves.
const batchTile = 512

// AddBatchRun folds a run of gathered inputs: entry j carries value vals[j],
// multiplicity mults[j], the Poisson weight window ws[j] (a nil window, or a
// nil ws, is weight 1 on every trial — rows of non-streamed provenance) and,
// when reps is non-nil, the per-replicate inputs reps[j] of an uncertain
// argument (nil: every replicate folds vals[j]). Equivalent to calling
// AddRep per entry in order; see the package comment for the bit-identity
// argument.
//
// With pmap (typically cluster.Pool.Map) and parts > 1 the replicate
// dimension is split: parts workers own contiguous replicate ranges and one
// extra task owns the mains, so every slot still receives its sequential
// operand sequence — the parallel axis of choice when a batch touches few
// groups, where sharding groups across workers would leave most of the pool
// idle. A nil pmap folds inline.
func (v *Vector) AddBatchRun(vals, mults []float64, ws, reps [][]float64, pmap func(n int, fn func(i int)), parts int) {
	B := v.trials
	if parts > B {
		parts = B
	}
	if parts <= 1 || pmap == nil {
		for t := 0; t < len(vals); t += batchTile {
			e := min(t+batchTile, len(vals))
			var wt, rt [][]float64
			if ws != nil {
				wt = ws[t:e]
			}
			if reps != nil {
				rt = reps[t:e]
			}
			v.addTile(vals[t:e], mults[t:e], wt, rt)
		}
		return
	}
	pmap(parts+1, func(p int) {
		if p == parts {
			v.AddBatchMain(vals, mults)
			return
		}
		v.addBatchRange(p*B/parts, (p+1)*B/parts, vals, mults, ws, reps)
	})
}

// AddBatch is AddBatchRun for entries whose weight windows index one slab:
// entry j's window is slab[rows[j]·B : rows[j]·B+B] (B = Trials()), or
// weight 1 when slab is nil.
func (v *Vector) AddBatch(vals, mults, slab []float64, rows []int32) {
	if slab == nil {
		v.AddBatchRun(vals, mults, nil, nil, nil, 0)
		return
	}
	B := v.trials
	var ws [batchTile][]float64
	for t := 0; t < len(vals); t += batchTile {
		e := min(t+batchTile, len(vals))
		for j, r := range rows[t:e] {
			ws[j] = slab[int(r)*B : int(r)*B+B]
		}
		v.addTile(vals[t:e], mults[t:e], ws[:e-t], nil)
	}
}

// addTile folds at most batchTile entries: the mains pass, then the
// replicates pass over the same (still cached) values.
func (v *Vector) addTile(vals, mults []float64, ws, reps [][]float64) {
	v.AddBatchMain(vals, mults)
	v.addBatchRange(0, v.trials, vals, mults, ws, reps)
}

// AddBatchMain folds the run into the main slots only (the mains task of a
// split AddBatchRun; the whole fold when Trials() is 0).
func (v *Vector) AddBatchMain(vals, mults []float64) {
	if v.bank == nil {
		for j := range vals {
			v.main.Add(vals[j], mults[j])
		}
		return
	}
	// The main slot is one accumulator against B≈100 replicates, so there
	// is nothing to amortise: reuse the per-tuple kernel verbatim. (This
	// also keeps the exact compiled expression shape — a hand-rolled
	// register accumulator is free to commute the adds' operand order,
	// which flips which NaN payload survives when both operands are NaN.)
	k, slots := v.Fn.kind, v.slots()
	for j := range vals {
		bankAddMain(k, v.bank, slots, vals[j], mults[j])
	}
}

// addBatchRange folds the run into replicates [lo, hi) only: entry j's
// replicate b gets weight mults[j]·ws[j][b] (mults[j] alone without a
// window) and input reps[j][b] (vals[j] without replicate inputs), exactly
// like bankAddRange per tuple.
//
// The arithmetic kinds delegate to bankAddRange per entry rather than
// open-coding the accumulation loop here: a second compiled copy of
// `s[i] += …` is free to commute the add's operand order, and when both
// the accumulator and the addend are NaN the hardware keeps the first
// operand's payload — so a re-compiled loop can bit-diverge from the
// oracle on NaN inputs even though the source-level FP ops are identical
// (the same reason AddBatchMain reuses bankAddMain). Routing every entry
// through the per-tuple kernel's own body keeps the one instruction
// sequence the equivalence fuzz already pins. MIN/MAX over certain
// arguments instead run the dedicated batch loop below: they do no FP
// arithmetic (compares and bit copies only), so they carry no NaN
// tie-break to preserve.
func (v *Vector) addBatchRange(lo, hi int, vals, mults []float64, ws, reps [][]float64) {
	if lo >= hi {
		return
	}
	k := v.Fn.kind
	if v.bank != nil && reps == nil && (k == kMin || k == kMax) {
		v.batchMinMax(lo, hi, vals, mults, ws, k == kMax)
		return
	}
	bank, slots := v.bank, v.slots()
	for j, val := range vals {
		var w, rp []float64
		if ws != nil {
			w = ws[j]
		}
		if reps != nil {
			rp = reps[j]
		}
		if bank != nil {
			bankAddRange(k, bank, slots, lo, hi, val, rp, mults[j], w)
			continue
		}
		// Interface path (UDAFs, COUNT(DISTINCT), the oracle): AddRep's
		// replicate loop, restricted to [lo, hi).
		for b := lo; b < hi; b++ {
			x := mults[j]
			if w != nil {
				x *= w[b]
			}
			in := val
			if b < len(rp) {
				in = rp[b]
			}
			v.reps[b].Add(in, x)
		}
	}
}

// window returns entry j's weight window restricted to replicates [lo, hi),
// or nil when the entry carries no weights.
func window(ws [][]float64, j, lo, hi int) []float64 {
	if ws == nil || ws[j] == nil {
		return nil
	}
	return ws[j][lo:hi]
}

// batchMinMax is the shared MIN/MAX replicate-range kernel. Rows with
// mult ≤ 0 fold nothing (every weight product mult·poisson is then ≤ 0,
// Poisson weights being non-negative — the same reduction bankAddRange's
// fast path makes). While some replicate in the window is still unset the
// guarded loop runs, counting open slots as it goes; once the window is
// fully set it switches to a lean compare-and-select loop with an
// unconditional store, which the compiler keeps branch-free.
func (v *Vector) batchMinMax(lo, hi int, vals, mults []float64, ws [][]float64, max bool) {
	bank, slots := v.bank, v.slots()
	cur := bank[1+lo : 1+hi]
	set := bank[slots+1+lo : slots+1+hi]
	j := 0
	for ; j < len(vals); j++ {
		val := vals[j]
		if mults[j] <= 0 {
			continue
		}
		open := 0
		w := window(ws, j, lo, hi)
		if w == nil {
			for i := range cur {
				nv, ns := cur[i], set[i]
				better := val < nv
				if max {
					better = val > nv
				}
				if ns == 0 || better {
					nv, ns = val, 1
				}
				cur[i], set[i] = nv, ns
				if ns == 0 {
					open++
				}
			}
		} else {
			cc, st := cur[:len(w)], set[:len(w)]
			for i := range w {
				nv, ns := cc[i], st[i]
				better := val < nv
				if max {
					better = val > nv
				}
				// Value test before the weight test (same verdict; see the
				// kernel fast path): the weight is the unpredictable branch.
				if (ns == 0 || better) && w[i] > 0 {
					nv, ns = val, 1
				}
				cc[i], st[i] = nv, ns
				if ns == 0 {
					open++
				}
			}
		}
		if open == 0 {
			j++
			break
		}
	}
	// Every slot in the window is set: the set flags are invariant from here
	// on, so the remaining entries run the lean loops.
	for ; j < len(vals); j++ {
		if mults[j] > 0 {
			leanMinMax(cur, window(ws, j, lo, hi), vals[j], max)
		}
	}
}

// leanMinMax folds one entry into a fully set window: compare-and-select
// with an unconditional store, which the compiler keeps branch-free. Kept
// out of line so each loop owns its registers — inlined into batchMinMax the
// allocator spills the loop index to the stack, which costs the kernel a
// quarter of its speed.
//
//go:noinline
func leanMinMax(cur, w []float64, val float64, max bool) {
	switch {
	case w == nil && max:
		for i := range cur {
			nv := cur[i]
			if val > nv {
				nv = val
			}
			cur[i] = nv
		}
	case w == nil:
		for i := range cur {
			nv := cur[i]
			if val < nv {
				nv = val
			}
			cur[i] = nv
		}
	case max:
		cur = cur[:len(w)]
		for i := range w {
			nv := cur[i]
			if val > nv && w[i] > 0 {
				nv = val
			}
			cur[i] = nv
		}
	default:
		cur = cur[:len(w)]
		for i := range w {
			nv := cur[i]
			if val < nv && w[i] > 0 {
				nv = val
			}
			cur[i] = nv
		}
	}
}
