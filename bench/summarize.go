package main

// endToEndOf computes the end-to-end metrics from a set of reps. Per-query
// values are medians over the reps; across queries, times combine by
// geometric mean, except total_s and exec_s, which are sums (serve: total_s
// is the median wave period). Called on all reps it gives the reported
// values; called on one rep at a time it gives the per-rep values whose
// spread -compare uses.
func endToEndOf(reps []rep, setups []float64) map[string]float64 {
	nq := len(reps[0].samples)
	col := func(q int, f func(sample) float64) []float64 {
		xs := make([]float64, len(reps))
		for i, r := range reps {
			xs[i] = f(r.samples[q])
		}
		return xs
	}
	var ttfe, ttfe90, acc, total, exec, over, gaps, periods []float64
	var tuples, mallocs float64
	peak := 0
	for q := 0; q < nq; q++ {
		ttfe = append(ttfe, median(col(q, func(s sample) float64 { return s.ttfe })))
		ttfe90 = append(ttfe90, quantile(col(q, func(s sample) float64 { return s.ttfe }), 0.90))
		acc = append(acc, median(col(q, func(s sample) float64 { return s.acc })))
		t := median(col(q, func(s sample) float64 { return s.total }))
		e := median(col(q, func(s sample) float64 { return s.exec }))
		total = append(total, t)
		exec = append(exec, e)
		over = append(over, t/e)
		tuples += float64(reps[0].samples[q].tuples)
	}
	for _, r := range reps {
		repPeak := r.peak
		for _, s := range r.samples {
			gaps = append(gaps, s.gaps...)
			mallocs += float64(s.mallocs)
			if s.peak > repPeak {
				repPeak = s.peak
			}
		}
		if repPeak > peak {
			peak = repPeak
		}
		if r.period > 0 {
			periods = append(periods, r.period)
		}
	}
	totalS := sum(total)
	if len(periods) > 0 {
		totalS = median(periods)
	}
	return map[string]float64{
		"setup_s":          median(setups),
		"ttfe_ms":          geomean(ttfe),
		"ttfe_p90_ms":      geomean(ttfe90),
		"acc1pct_ms":       geomean(acc),
		"refresh_p50_ms":   quantile(gaps, 0.50),
		"refresh_p95_ms":   quantile(gaps, 0.95),
		"total_s":          totalS,
		"tuples_per_s":     tuples / totalS,
		"exec_s":           sum(exec),
		"overhead_x":       geomean(over),
		"peak_state_mb":    float64(peak) / (1 << 20),
		"allocs_per_tuple": mallocs / (tuples * float64(len(reps))),
	}
}

// byVariant groups the reps by engine-seed variant, dropping empty groups.
func byVariant(reps []rep) [][]rep {
	index := map[int]int{}
	var groups [][]rep
	for _, r := range reps {
		i, ok := index[r.variant]
		if !ok {
			i = len(groups)
			index[r.variant] = i
			groups = append(groups, nil)
		}
		groups[i] = append(groups[i], r)
	}
	return groups
}

// poolExec returns a copy of the reps in which every sample's exact-baseline
// time is its query's median over all the reps. The baseline does not depend
// on the engine seed, so it needs no per-variant treatment, and a variant has
// only two or three reps: the average of five such medians follows every
// outlier, the median of all ten to fifteen does not.
func poolExec(reps []rep) []rep {
	out := make([]rep, len(reps))
	for i, r := range reps {
		out[i] = r
		out[i].samples = append([]sample(nil), r.samples...)
	}
	for q := range reps[0].samples {
		xs := make([]float64, len(reps))
		for i, r := range reps {
			xs[i] = r.samples[q].exec
		}
		m := median(xs)
		for i := range out {
			out[i].samples[q].exec = m
		}
	}
	return out
}

// summarize returns the reported end-to-end values — each metric computed
// per seed variant and averaged over the variants —, each metric's spread
// (interquartile range over median of the per-rep values within a variant,
// averaged over the variants; setup_s across the set-up repetitions), and
// the sample counts behind the pooled percentiles.
func summarize(reps []rep, setups []float64) (vals, spreads map[string]float64, counts map[string]int) {
	vals, spreads = map[string]float64{}, map[string]float64{}
	groups := byVariant(reps)
	share := 1 / float64(len(groups))
	for _, g := range byVariant(poolExec(reps)) {
		for name, v := range endToEndOf(g, setups) {
			vals[name] += v * share
		}
	}
	for _, g := range groups {
		perRep := map[string][]float64{}
		for _, r := range g {
			for name, v := range endToEndOf([]rep{r}, setups) {
				perRep[name] = append(perRep[name], v)
			}
		}
		for name, xs := range perRep {
			spreads[name] += spread(xs) * share
		}
	}
	spreads["setup_s"] = spread(setups)
	// A variant has too few reps for a tail, and the first batch cannot
	// recover, so the TTFE tail is taken over all reps at once.
	vals["ttfe_p90_ms"] = endToEndOf(reps, setups)["ttfe_p90_ms"]
	nGaps, nTTFE := 0, 0
	for _, r := range reps {
		for _, s := range r.samples {
			nGaps += len(s.gaps)
			nTTFE++
		}
	}
	counts = map[string]int{"refresh_gaps": nGaps, "ttfe": nTTFE, "setups": len(setups)}
	return vals, spreads, counts
}
