package main

import "encoding/json"

// runSeconds is how long one run of the driver measures.
const runSeconds = 12

// describeBenchmark renders BENCHMARK.json from the tables below, so the
// file at the repository root is generated, never hand-edited.
func describeBenchmark() []byte {
	type named struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type bounded struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string  `json:"command"`
		Paths      []string  `json:"paths"`
		RunSeconds int       `json:"run_seconds"`
		Workloads  []named   `json:"workloads"`
		EndToEnd   []bounded `json:"end_to_end"`
		PerLayer   []layer   `json:"per_layer"`
	}{Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: runSeconds}
	for _, sp := range specs {
		doc.Workloads = append(doc.Workloads, named{sp.name, sp.why})
	}
	for _, d := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, bounded{d.name, d.unit, d.better, d.bound})
	}
	for _, d := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{d.name, d.unit, d.better})
	}
	data, _ := json.MarshalIndent(doc, "", "  ")
	return append(data, '\n')
}

// metricDef is one named metric. The end-to-end list and BENCHMARK.json
// must agree (the smoke test checks); bound is the share of the parent's
// median by which the metric may worsen before -compare calls a regression.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	bound  float64
}

// endToEnd are the metrics a user of the engine sees, reported by every
// workload on the untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ttfe_ms", "ms", "lower", 0.25},
	{"ttfe_p90_ms", "ms", "lower", 0.25},
	{"acc1pct_ms", "ms", "lower", 0.25},
	{"refresh_p50_ms", "ms", "lower", 0.25},
	{"refresh_p95_ms", "ms", "lower", 0.25},
	{"total_s", "s", "lower", 0.25},
	{"tuples_per_s", "1/s", "higher", 0.25},
	{"exec_s", "s", "lower", 0.25},
	{"overhead_x", "x", "lower", 0.25},
	{"peak_state_mb", "MB", "lower", 0.05},
	{"allocs_per_tuple", "count", "lower", 0.25},
}

// layerDef is one per-layer metric of the traced run; moves names the
// end-to-end metrics it should move and on which workload (README table).
type layerDef struct {
	name   string
	unit   string
	better string
	moves  string
}

const (
	mvFlatBoot   = "total_s, overhead_x, refresh_p50_ms on flat_boot (diluted on every B=100 workload); none on flat_noboot"
	mvFlatNoboot = "total_s, tuples_per_s on flat_noboot; a few % on flat_boot"
	mvJoin       = "ttfe_ms, total_s, peak_state_mb on join_star; none on flat_*"
	mvSink       = "refresh_p50_ms on join_star and serve_cohort"
	mvNested     = "refresh_p95_ms, total_s, overhead_x, acc1pct_ms on nested_unc; on nested_tiny core.recompute_ratio alone predicts overhead_x"
	mvServe      = "ttfe_ms, ttfe_p90_ms, refresh_p95_ms, peak_state_mb on serve_cohort; sub-millisecond elsewhere"
	mvSetup      = "setup_s on every workload"
	mvNone       = "no end-to-end metric yet (no workload runs under a state budget); kept as the before/after for the codec merge"
	mvParallel   = "total_s on flat_boot and join_star at Workers=nproc"
	mvContext    = "context: sizes the run, moves nothing by itself"
)

var perLayer = []layerDef{
	// Stage spans around the public calls, summed over the workload's
	// queries and averaged over the traced reps.
	{"sql.parse_us", "us", "lower", mvServe},
	{"sql.plan_us", "us", "lower", mvServe},
	{"core.compile_ms", "ms", "lower", mvJoin},
	{"core.step_first_ms", "ms", "lower", mvJoin},
	{"core.step_rest_ms", "ms", "lower", mvFlatBoot},
	{"core.step_last_ms", "ms", "lower", mvFlatBoot},
	{"sql.postprocess_us", "us", "lower", mvSink},
	{"core.close_us", "us", "lower", mvContext},
	{"exec.run_ms", "ms", "lower", "exec_s, overhead_x on every workload"},
	{"bench.driver_self_pct", "%", "lower", mvContext},
	{"trace.overhead_pct", "%", "lower", mvContext},
	// Exact counts from core.Update and Engine.OpStats.
	{"core.rows_streamed", "rows", "higher", mvContext},
	{"core.result_rows", "rows", "lower", mvSink},
	{"core.batches_to_1pct", "batches", "lower", "acc1pct_ms on every B=100 workload"},
	{"core.recomputed_rows", "rows", "lower", mvNested},
	{"core.recompute_ratio", "x", "lower", mvNested},
	{"core.ndset_rows_peak", "rows", "lower", mvNested},
	{"core.recoveries", "count", "lower", mvNested},
	{"core.replay_batches", "batches", "lower", mvNested},
	{"core.scan_rows_out", "rows", "lower", mvContext},
	{"core.select_rows_out", "rows", "lower", mvContext},
	{"core.join_rows_out", "rows", "lower", mvJoin},
	{"core.agg_rows_out", "rows", "lower", mvNested},
	{"core.unc_rows_out", "rows", "lower", mvNested},
	{"delta.join_state_peak_mb", "MB", "lower", mvJoin},
	{"core.other_state_peak_mb", "MB", "lower", "peak_state_mb on flat_* and nested_*"},
	{"cluster.shuffle_mb", "MB", "lower", mvContext},
	{"cluster.broadcast_mb", "MB", "lower", mvContext},
	// Engine-reported per-row cost (Engine.CostSnapshot after the last batch).
	{"cluster.cost_scan_ns_row", "ns/row", "lower", mvFlatNoboot},
	{"cluster.cost_select_ns_row", "ns/row", "lower", mvFlatNoboot},
	{"cluster.cost_project_ns_row", "ns/row", "lower", mvFlatNoboot},
	{"cluster.cost_join_probe_ns_row", "ns/row", "lower", mvJoin},
	{"cluster.cost_fold_ns_row", "ns/row", "lower", mvFlatBoot},
	{"cluster.cost_sink_ns_row", "ns/row", "lower", mvSink},
	// Ablations by public option, as ratios of total_s.
	{"core.boot_share", "x", "lower", mvFlatBoot},
	{"core.vectorize_x", "x", "higher", mvFlatNoboot},
	{"cluster.speedup_x", "x", "higher", mvParallel},
	{"core.hda_x", "x", "higher", mvNested},
	{"core.opt1_x", "x", "higher", mvNested},
	// Serving layer: client-side spans and Engine.Snapshot.
	{"serve.open_rtt_ms", "ms", "lower", mvServe},
	{"serve.pass_wait_ms", "ms", "lower", mvServe},
	{"serve.slowdown_x", "x", "lower", mvServe},
	{"serve.shared_hits", "count", "higher", mvServe},
	{"serve.shared_saved_mb", "MB", "higher", mvServe},
	{"serve.shared_peak_mb", "MB", "lower", mvServe},
	{"serve.completed", "count", "higher", mvServe},
	{"serve.rejected", "count", "lower", mvServe},
	// Layer probes: timed loops over exported functions at a fixed shape.
	{"agg.add_batch_sum_ns_tuple", "ns/tuple", "lower", mvFlatBoot},
	{"agg.add_batch_avg_ns_tuple", "ns/tuple", "lower", mvFlatBoot},
	{"agg.add_batch_var_ns_tuple", "ns/tuple", "lower", mvFlatBoot},
	{"agg.add_batch_min_ns_tuple", "ns/tuple", "lower", mvFlatBoot},
	{"agg.add_batch_main_ns_tuple", "ns/tuple", "lower", mvFlatNoboot},
	{"agg.add_row_sum_ns_tuple", "ns/tuple", "lower", mvFlatNoboot},
	{"agg.snapshot_ns_group", "ns/group", "lower", mvNested},
	{"agg.restore_ns_group", "ns/group", "lower", mvNested},
	{"bootstrap.weights_ns_tuple", "ns/tuple", "lower", mvFlatBoot},
	{"bootstrap.summarize_ns_cell", "ns/cell", "lower", mvSink},
	{"bootstrap.range_observe_ns", "ns", "lower", mvNested},
	{"delta.add_batch_ns_row", "ns/row", "lower", mvJoin},
	{"delta.probe_hit_ns_row", "ns/row", "lower", mvJoin},
	{"delta.probe_miss_ns_row", "ns/row", "lower", mvJoin},
	{"delta.snapshot_us", "us", "lower", mvNested},
	{"delta.restore_us", "us", "lower", mvNested},
	{"delta.spill_evict_mb_s", "MB/s", "higher", mvNone},
	{"delta.spill_probe_ns_row", "ns/row", "lower", mvNone},
	{"rel.to_columns_ns_row", "ns/row", "lower", mvFlatNoboot},
	{"rel.encode_key_ns_row", "ns/row", "lower", mvJoin},
	{"rel.columns_encode_key_ns_row", "ns/row", "lower", mvJoin},
	{"expr.select_vec_ns_row", "ns/row", "lower", mvFlatNoboot},
	{"expr.select_row_ns_row", "ns/row", "lower", mvFlatNoboot},
	{"storage.block_encode_mb_s", "MB/s", "higher", mvSetup},
	{"storage.block_decode_mb_s", "MB/s", "higher", mvSetup},
	{"storage.spill_row_encode_ns", "ns", "lower", mvNone},
	{"storage.spill_row_decode_ns", "ns", "lower", mvNone},
	{"storage.iol_write_mb_s", "MB/s", "higher", mvSetup},
	{"storage.iol_read_mb_s", "MB/s", "higher", mvSetup},
	{"cluster.map_dispatch_us", "us", "lower", mvServe},
	{"cluster.partition_by_key_ns_row", "ns/row", "lower", mvParallel},
	{"share.fingerprint_us", "us", "lower", mvServe},
	{"share.acquire_hit_ns", "ns", "lower", mvServe},
	// Reconciliation: a layer's number against the layer below it.
	{"recon.fold_x", "x", "lower", mvContext},
	{"recon.scan_x", "x", "lower", mvContext},
	{"recon.step_cover_pct", "%", "higher", mvContext},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// fill turns computed values into the reported map: every defined name
// appears exactly once with its unit; a layer the workload does not
// exercise reports 0.
func fillEndToEnd(vals map[string]float64) map[string]metric {
	out := make(map[string]metric, len(endToEnd))
	for _, d := range endToEnd {
		out[d.name] = metric{Value: vals[d.name], Unit: d.unit}
	}
	return out
}

func fillPerLayer(vals map[string]float64) map[string]metric {
	out := make(map[string]metric, len(perLayer))
	for _, d := range perLayer {
		out[d.name] = metric{Value: vals[d.name], Unit: d.unit}
	}
	return out
}
