package main

import (
	"iolap/internal/cluster"
	"iolap/internal/plan"
)

// kindClass maps an online operator kind to the cost class its sites
// report under.
var kindClass = map[string]cluster.OpClass{
	"scan":      cluster.CostScan,
	"select":    cluster.CostSelect,
	"project":   cluster.CostProject,
	"join":      cluster.CostJoinProbe,
	"aggregate": cluster.CostFold,
	"sink":      cluster.CostSink,
}

// inputRows rebuilds the operator tree from OpStats' post-order listing
// (scans are leaves, joins and unions binary, the rest unary) and returns
// each operator's input rows: what its children emitted, the streamed side
// only for a join, and its own output for a scan.
func inputRows(ops []opTotal) []int {
	in := make([]int, len(ops))
	var stack []int
	pop := func() int {
		i := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		return i
	}
	out := func(i int) int { return ops[i].news + ops[i].unc }
	for i, op := range ops {
		switch op.kind {
		case "scan", "shared-build", "agg-shared":
			in[i] = out(i)
		case "join", "union":
			if len(stack) < 2 {
				return in
			}
			r, l := pop(), pop()
			in[i] = out(l)
			if op.kind == "union" {
				in[i] += out(r)
			}
		default:
			if len(stack) < 1 {
				return in
			}
			in[i] = out(pop())
		}
		stack = append(stack, i)
	}
	return in
}

// reconMetrics holds two layers' numbers against each other, on the
// Workers=1 ablation rep so both sides are single-threaded work.
//
// recon.step_cover_pct: the engine's per-row cost of each class times the
// rows that class processed, over the summed step time. What it leaves
// uncovered is publish, snapshot and range time no exported counter sees.
//
// recon.fold_x: the engine's fold cost per row over what the kernels below
// predict for the query's aggregates (one add_batch probe per aggregate),
// geometric mean over the queries that fold.
//
// recon.scan_x: the engine's scan cost per row over one Poisson weight draw
// — the streamed scan is where the engine draws them (ISSUE 11 put the draw
// under the fold; the code draws it in opScan), so with the bootstrap off
// this is not reported.
func reconMetrics(single []queryRep, noboot bool, probes, m map[string]float64) {
	var covered, stepNs float64
	var foldRatios, scanRatios []float64
	prior := cluster.NewCostModel(0).Snapshot()
	for _, qr := range single {
		r := qr.run
		for _, d := range r.updates {
			stepNs += float64(d.u.Duration.Nanoseconds())
		}
		in := inputRows(r.ops.ops)
		for i, op := range r.ops.ops {
			if class, ok := kindClass[op.kind]; ok {
				covered += r.cost[class.String()] * float64(in[i])
			}
		}
		fold := r.cost[cluster.CostFold.String()]
		if predicted := predictedFold(r.q.execPlan, noboot, probes); predicted > 0 && fold != prior[cluster.CostFold.String()] {
			foldRatios = append(foldRatios, fold/predicted)
		}
		scan := r.cost[cluster.CostScan.String()]
		if draw := probes["bootstrap.weights_ns_tuple"]; !noboot && draw > 0 && scan != prior[cluster.CostScan.String()] {
			scanRatios = append(scanRatios, scan/draw)
		}
	}
	if stepNs > 0 {
		m["recon.step_cover_pct"] = 100 * covered / stepNs
	}
	if len(foldRatios) > 0 {
		m["recon.fold_x"] = geomean(foldRatios)
	}
	if len(scanRatios) > 0 {
		m["recon.scan_x"] = geomean(scanRatios)
	}
}

// predictedFold is the kernels' prediction of one fold row: the mean over
// the plan's aggregate nodes of the matching probe per aggregate.
func predictedFold(root plan.Node, noboot bool, probes map[string]float64) float64 {
	probeOf := map[string]string{
		"SUM": "agg.add_batch_sum_ns_tuple", "COUNT": "agg.add_batch_sum_ns_tuple",
		"AVG": "agg.add_batch_avg_ns_tuple",
		"VAR": "agg.add_batch_var_ns_tuple", "STDDEV": "agg.add_batch_var_ns_tuple",
		"MIN": "agg.add_batch_min_ns_tuple", "MAX": "agg.add_batch_min_ns_tuple",
	}
	var total float64
	nodes := 0
	plan.Walk(root, func(n plan.Node) {
		a, ok := n.(*plan.Aggregate)
		if !ok {
			return
		}
		nodes++
		for _, spec := range a.Aggs {
			switch {
			case noboot:
				total += probes["agg.add_batch_main_ns_tuple"]
			case probeOf[spec.Fn.Name] != "":
				total += probes[probeOf[spec.Fn.Name]]
			default: // a UDAF: the closest kernel is the two-field AVG
				total += probes["agg.add_batch_avg_ns_tuple"]
			}
		}
	})
	if nodes == 0 {
		return 0
	}
	return total / float64(nodes)
}
