package main

// The metric and workload catalogue. BENCHMARK.json at the repository root
// names the same metrics with their regression bounds; TestCatalogueMatches
// keeps the two in step, and -calibrate rewrites the bounds from measured
// spreads.

// metricDef is one named metric: its unit and which direction is better.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Floor is the smallest regression bound calibration may give an
	// end-to-end metric (0 for per-layer metrics, which carry no bound).
	Floor float64
}

// endToEnd are the metrics a user of the system sees. Every one is defined
// on every workload (the acceptance driver requires each run to report all
// of them, none ever 0); what each means on the offline crowd_batch workload
// is spelled out in the README, with every metric's definition.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.15},
	{"answers_per_s", "1/s", "higher", 0.10},
	{"task_p50_ms", "ms", "lower", 0.10},
	{"visibility_p50_ms", "ms", "lower", 0.10},
	{"restart_s", "s", "lower", 0.10},
	{"cpu_s_per_kanswer", "s", "lower", 0.10},
	{"peak_rss_mb", "MB", "lower", 0.15},
	{"accuracy", "share", "higher", 0.02},
}

// perLayer are the single-layer metrics of a traced run, named layer.metric
// with layer = package name (gen = the load generator about itself, proc =
// the Go runtime). A metric that does not apply to a workload reads 0 there.
var perLayer = []metricDef{
	// server: Δ /metrics stage histograms and /stats around the drive.
	{Name: "server.refit_busy_s", Unit: "s", Better: "lower"},
	{Name: "server.refit_count", Unit: "count", Better: "lower"},
	{Name: "server.refit_mean_ms", Unit: "ms", Better: "lower"},
	{Name: "server.fold_busy_s", Unit: "s", Better: "lower"},
	{Name: "server.fold_count", Unit: "count", Better: "lower"},
	{Name: "server.plan_busy_s", Unit: "s", Better: "lower"},
	{Name: "server.publish_self_s", Unit: "s", Better: "lower"},
	{Name: "server.drain_busy_s", Unit: "s", Better: "lower"},
	{Name: "server.batch_mean", Unit: "count", Better: "higher"},
	{Name: "server.coordinator_busy_share", Unit: "share", Better: "lower"},
	{Name: "server.coordinator_unexplained_share", Unit: "share", Better: "higher"},
	{Name: "server.queue_depth_max", Unit: "count", Better: "lower"},
	{Name: "server.visibility_mean_ms", Unit: "ms", Better: "lower"},
	{Name: "server.answer_handler_mean_ms", Unit: "ms", Better: "lower"},
	{Name: "server.task_handler_mean_ms", Unit: "ms", Better: "lower"},
	{Name: "server.handle_answer_us", Unit: "us", Better: "lower"},
	{Name: "server.handle_task_us", Unit: "us", Better: "lower"},
	{Name: "server.handle_truths_ms", Unit: "ms", Better: "lower"},
	{Name: "server.refresh_ms", Unit: "ms", Better: "lower"},
	{Name: "server.plan_builds", Unit: "count", Better: "lower"},
	{Name: "server.plan_advances", Unit: "count", Better: "higher"},
	{Name: "server.plan_fallbacks", Unit: "count", Better: "lower"},
	{Name: "server.rejected_429", Unit: "count", Better: "lower"},
	{Name: "server.responses_4xx", Unit: "count", Better: "lower"},
	{Name: "server.responses_5xx", Unit: "count", Better: "lower"},
	// eventlog: Δ tdh_eventlog_* plus the serial-append and replay probes.
	{Name: "eventlog.append_mean_ms", Unit: "ms", Better: "lower"},
	{Name: "eventlog.fsync_mean_ms", Unit: "ms", Better: "lower"},
	{Name: "eventlog.group_size_mean", Unit: "count", Better: "higher"},
	{Name: "eventlog.bytes_per_event", Unit: "B", Better: "lower"},
	{Name: "eventlog.append_serial_us", Unit: "us", Better: "lower"},
	{Name: "eventlog.replay_ms_per_kevent", Unit: "ms", Better: "lower"},
	{Name: "eventlog.replay_skipped", Unit: "count", Better: "lower"},
	// data, engine, core, assign: the layer replay.
	{Name: "data.load_file_ms", Unit: "ms", Better: "lower"},
	{Name: "data.new_index_ms", Unit: "ms", Better: "lower"},
	{Name: "data.extend_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.fit_ms", Unit: "ms", Better: "lower"},
	{Name: "core.em_iterations", Unit: "count", Better: "lower"},
	{Name: "engine.epoch_open_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.epoch_fold_us_per_answer", Unit: "us", Better: "lower"},
	{Name: "engine.epoch_seal_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.grow_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.numeric_apply_ms", Unit: "ms", Better: "lower"},
	{Name: "assign.new_plan_ms", Unit: "ms", Better: "lower"},
	{Name: "assign.prewarm_ms", Unit: "ms", Better: "lower"},
	{Name: "assign.advance_ms", Unit: "ms", Better: "lower"},
	{Name: "assign.task_assign_us", Unit: "us", Better: "lower"},
	// campaign, obs.
	{Name: "campaign.create_ms", Unit: "ms", Better: "lower"},
	{Name: "campaign.open_ms", Unit: "ms", Better: "lower"},
	{Name: "campaign.open_unexplained_ms", Unit: "ms", Better: "lower"},
	{Name: "campaign.route_overhead_us", Unit: "us", Better: "lower"},
	{Name: "obs.scrape_ms", Unit: "ms", Better: "lower"},
	// crowd: the offline loop's own trace.
	{Name: "crowd.round_ms", Unit: "ms", Better: "lower"},
	{Name: "crowd.infer_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "crowd.assign_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "crowd.other_ms", Unit: "ms", Better: "lower"},
	{Name: "synth.generate_ms", Unit: "ms", Better: "lower"},
	{Name: "eval.evaluate_ms", Unit: "ms", Better: "lower"},
	// proc: Δ runtime.MemStats over the drive.
	{Name: "proc.alloc_mb_per_kanswer", Unit: "MB", Better: "lower"},
	{Name: "proc.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "proc.gc_pause_total_ms", Unit: "ms", Better: "lower"},
	// gen: the generator about itself, and the client-side figures that are
	// not defined on every workload and so cannot be end-to-end metrics.
	{Name: "gen.lag_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "gen.sessions", Unit: "count", Better: "higher"},
	{Name: "gen.polls", Unit: "count", Better: "lower"},
	{Name: "gen.trace_overhead_share", Unit: "share", Better: "lower"},
	{Name: "gen.failed_share", Unit: "share", Better: "lower"},
	{Name: "gen.http_overhead_ms", Unit: "ms", Better: "lower"},
	{Name: "gen.answer_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "gen.answer_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "gen.answer_pmax_ms", Unit: "ms", Better: "lower"},
	{Name: "gen.task_due_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "gen.task_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "gen.task_pmax_ms", Unit: "ms", Better: "lower"},
	{Name: "gen.visibility_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "gen.visibility_pmax_ms", Unit: "ms", Better: "lower"},
	{Name: "gen.read_p50_ms", Unit: "ms", Better: "lower"},
}

// workloadDef names one workload and why it exists.
type workloadDef struct {
	Name string
	Why  string
}

var workloads = []workloadDef{
	{"ingest_refit", "closed loop, fixed answer budget on Heritages under the default refit policy, one shard: the full refit is ~all coordinator time, so refit and warm-start work shows here"},
	{"ingest_publish", "open loop at 100 sessions/s on 12k-object BirthPlaces with refits off: every cycle pays Clone + ResultFromModel + Plan.Advance, so publish-path work shows here and refit work must not"},
	{"mixed_tenants", "open loop over a categorical and a numeric campaign with reads and open-world growth: a gain for one path that costs readers, growth or the numeric fallback shows here"},
	{"crowd_batch", "the paper's offline loop (crowd.RunLoop, TDH+EAI, 10 workers x 5) with no server, log or HTTP: de-tuning the plain algorithm shows here, server-only work must not"},
}

func workloadNames() []string {
	out := make([]string, len(workloads))
	for i, w := range workloads {
		out[i] = w.Name
	}
	return out
}
