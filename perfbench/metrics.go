package main

// metricDef names one reported metric. The end-to-end set is printed by
// untraced runs, the per-layer set by traced runs; BENCHMARK.json lists
// the same names and units (TestBenchmarkJSONMatches keeps them in step).
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
}

// endToEnd are the metrics a library caller or a specwised client sees.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"job_p50_s", "s", "lower"},
	{"verify_p50_s", "s", "lower"},
	{"verify_p90_s", "s", "lower"},
	{"jobs_per_s", "1/s", "higher"},
	{"cpu_s_per_job", "s", "lower"},
	{"sims_per_job", "count", "lower"},
	{"final_yield_pct", "%", "higher"},
	{"ok_pct", "%", "higher"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer are the traced run's metrics, grouped by the module they
// measure. Counts and busy times are totals over the run's fixed job
// list; a layer a workload does not exercise reports 0.
var perLayer = []metricDef{
	// Simulator (circuits + spice) and the sparse solver under it.
	{"spice.eval_calls", "count", "lower"},
	{"spice.eval_busy_s", "s", "lower"},
	{"spice.eval_p50_us", "us", "lower"},
	{"spice.constraint_calls", "count", "lower"},
	{"spice.dc_s", "s", "lower"},
	{"spice.ac_s", "s", "lower"},
	{"spice.newton_iters_per_eval", "count", "lower"},
	{"spice.warm_converged_ratio", "ratio", "higher"},
	{"spice.fallbacks", "count", "lower"},
	{"linalg.factorizations_per_eval", "count", "lower"},
	{"linalg.solves_per_eval", "count", "lower"},
	{"linalg.fill_ratio", "ratio", "lower"},

	// Stage replay: one Fig.-6 cycle driven through the stage functions.
	{"feasopt.start_s", "s", "lower"},
	{"feasopt.start_sims", "count", "lower"},
	{"wcd.theta_s", "s", "lower"},
	{"wcd.theta_sims", "count", "lower"},
	{"wcd.search_s", "s", "lower"},
	{"wcd.search_sims", "count", "lower"},
	{"linmodel.build_s", "s", "lower"},
	{"linmodel.build_sims", "count", "lower"},
	{"linmodel.estimator_s", "s", "lower"},
	{"core.verify_s", "s", "lower"},
	{"core.verify_sims", "count", "lower"},
	{"feasopt.linearize_s", "s", "lower"},
	{"feasopt.linearize_sims", "count", "lower"},
	{"coord.search_s", "s", "lower"},
	{"feasopt.linesearch_s", "s", "lower"},
	{"feasopt.linesearch_sims", "count", "lower"},
	{"replay.sims", "count", "lower"},

	// Engine and search backend, from progress timestamps.
	{"core.initial_analysis_s", "s", "lower"},
	{"core.iteration_p50_s", "s", "lower"},
	{"core.attempts_per_job", "count", "lower"},
	{"search.accept_ratio", "ratio", "higher"},

	// Evaluation cache, from the optimize results' effort counters.
	{"evalcache.hit_ratio", "ratio", "higher"},
	{"evalcache.cross_hit_ratio", "ratio", "higher"},
	{"evalcache.deduped", "count", "higher"},

	// Job manager, from the status timestamps.
	{"jobs.verify_wait_p50_s", "s", "lower"},
	{"jobs.optimize_wait_p50_s", "s", "lower"},
	{"jobs.verify_run_p50_s", "s", "lower"},
	{"jobs.optimize_run_p50_s", "s", "lower"},
	{"jobs.refused", "count", "lower"},

	// HTTP server, from client-side timing.
	{"server.submit_p50_s", "s", "lower"},
	{"server.result_p50_s", "s", "lower"},
	{"server.result_bytes", "bytes", "lower"},
	{"server.overhead_p50_s", "s", "lower"},

	// Durable store, through a timing decorator around jobs.Store.
	{"store.appends_per_job", "count", "lower"},
	{"store.append_p50_us", "us", "lower"},
	{"store.append_busy_s", "s", "lower"},
	{"store.bytes_per_job", "bytes", "lower"},
	{"store.compactions", "count", "lower"},

	// Go runtime.
	{"go.alloc_mb_per_job", "MB", "lower"},
	{"go.gc_pause_s", "s", "lower"},

	// Self time per layer (span duration minus the part of it its child
	// spans cover) and the cost of tracing itself.
	{"self.spice_s", "s", "lower"},
	{"self.core_s", "s", "lower"},
	{"self.jobs_s", "s", "lower"},
	{"self.server_s", "s", "lower"},
	{"self.store_s", "s", "lower"},
	{"trace.spans", "count", "lower"},
	{"trace.overhead_s", "s", "lower"},
}
