package main

// perLayer lists the per-layer metrics a traced run reports, named after
// the module they measure. Every workload prints all of them; a layer a
// workload does not reach reads 0 (README.md says which). They carry no
// bound: they explain the end-to-end numbers, they do not gate.
var perLayer = []metricDef{
	{"trace.run_wall_s", "s"},
	{"trace.spans", "count"},
	{"trace.self_sum_frac", "fraction"},

	{"op.samples", "count"},
	{"op.ms_p50", "ms"},
	{"op.ms_p90", "ms"},
	{"op.ms_p95", "ms"},
	{"op.ms_p99", "ms"},

	{"sim.events", "count"},
	{"sim.pending_peak", "count"},
	{"sim.queue_ns_per_event", "ns"},

	{"core.onsubmit_s", "s"},
	{"core.onsubmit_calls", "count"},
	{"core.ontick_s", "s"},
	{"core.ontick_calls", "count"},
	{"core.ontick_slow_calls", "count"},
	{"core.oncomplete_s", "s"},
	{"core.oncomplete_calls", "count"},
	{"core.onevicted_s", "s"},
	{"core.runtime_sweep_s", "s"},
	{"core.tick_ms_p999", "ms"},
	{"core.tick_ms_max", "ms"},
	{"core.queue_len_peak", "count"},
	{"core.running_peak", "count"},

	{"slo.tick_s", "s"},
	{"slo.tracked", "count"},
	{"slo.alerts", "count"},

	{"classify.classify_calls", "count"},
	{"classify.reclassify_calls", "count"},
	{"classify.rows_end", "count"},
	{"classify.classify_ms", "ms"},
	{"classify.reclassify_ms", "ms"},
	{"cf.svd_ms", "ms"},
	{"cf.train_ms", "ms"},
	{"cf.foldin_us", "us"},

	{"sched.decisions", "count"},
	{"sched.decisions_failed", "count"},
	{"sched.candidates_mean", "count"},
	{"sched.rank_us", "us"},
	{"sched.schedule_us", "us"},
	{"cluster.pristine_end", "count"},
	{"cluster.occupiable_end", "count"},
	{"cluster.pressure_on_ns", "ns"},

	{"obs.events", "count"},
	{"obs.bytes", "count"},
	{"obs.emit_s", "s"},
	{"obs.emit_ns_per_event", "ns"},
	{"obs.close_s", "s"},

	{"serve.sent", "count"},
	{"serve.ok", "count"},
	{"serve.failed", "count"},
	{"serve.late_ms_mean", "ms"},
	{"serve.ack_ms_p99", "ms"},
	{"serve.submit_ms_p50", "ms"},
	{"serve.read_ms_p50", "ms"},
	{"serve.visible_ms_p50", "ms"},
	{"serve.visible_ms_p95", "ms"},
	{"serve.http_submit_us_p50", "us"},
	{"serve.http_submit_us_p99", "us"},
	{"serve.journal_flush_us_p99", "us"},
	{"serve.epoch_batch_mean", "count"},
	{"serve.pacer_lag_us_p99", "us"},
	{"serve.journal_bytes", "count"},
	{"serve.stream_dropped", "count"},
	{"serve.span_decode_us_p50", "us"},
	{"serve.span_lock_wait_us_p50", "us"},
	{"serve.span_seal_wait_ms_p50", "ms"},
	{"serve.span_apply_us_p50", "us"},
	{"serve.journal_admit_us", "us"},
	{"serve.journal_read_us", "us"},
	{"serve.finalize_s", "s"},
	{"serve.replay_entries_per_s", "1/s"},
	{"serve.closed_loop_rps", "1/s"},
	{"serve.load_factor", "fraction"},

	{"prof.sim_step_s", "s"},
	{"prof.runtime_tick_s", "s"},
	{"prof.sched_s", "s"},
	{"prof.classify_s", "s"},
	{"prof.slo_s", "s"},
	{"prof.trace_export_s", "s"},
}

// layerSums marks the count-like per-layer metrics that add up across the
// units of a run (busy times and call counts are recognised by suffix).
var layerSums = map[string]bool{
	"trace.spans": true, "sim.events": true,
	"slo.tracked": true, "slo.alerts": true,
	"classify.classify_calls": true, "classify.reclassify_calls": true,
	"sched.decisions": true, "sched.decisions_failed": true,
	"obs.events": true, "obs.bytes": true,
	"serve.sent": true, "serve.ok": true, "serve.failed": true,
	"serve.journal_bytes": true, "serve.stream_dropped": true,
}
