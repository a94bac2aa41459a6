package main

// metricSpec is one reported metric. BENCHMARK.json at the repository
// root lists the same names, units, directions and bounds;
// TestSpecMatchesBenchmarkJSON keeps the two in step.
type metricSpec struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: allowed worsening, as a share of the parent's median
}

// endToEnd lists the metrics a user of the system sees. Every workload
// reports every one of them (see the package comment for what each means
// on each workload). open_ready_s is reported but not listed: on the
// benchmark's small stores it is about 10 ms and its run-to-run spread
// exceeds the largest bound a metric may have.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"search_qps", "1/s", "higher", 0.25},
	{"search_p50_ms", "ms", "lower", 0.25},
	{"search_p99_ms", "ms", "lower", 0.25},
	{"ingest_kf_per_s", "1/s", "higher", 0.25},
	{"ingest_p50_ms", "ms", "lower", 0.25},
	{"ingest_p99_ms", "ms", "lower", 0.25},
	{"heap_bytes_per_kf", "B", "lower", 0.1},
	{"store_bytes_per_kf", "B", "lower", 0.15},
	{"recall_at_10", "ratio", "higher", 0.02},
	{"served_share", "ratio", "higher", 0.01},
}

// perLayer lists the single-layer metrics a traced run reports. A layer
// the workload does not reach reports 0. "*.tail" is the highest
// percentile with ten samples beyond it; bases of ratios sit beside them.
var perLayer = []metricSpec{
	{"imaging.decode_ms", "ms", "lower", 0},
	{"imaging.decode_ms.tail", "ms", "lower", 0},
	{"imaging.rescale_calls_per_query", "count", "lower", 0},
	{"features.frames", "count", "higher", 0},
	{"features.planes_ms", "ms", "lower", 0},
	{"features.planes_ms.tail", "ms", "lower", 0},
	{"features.histogram_ms", "ms", "lower", 0},
	{"features.histogram_ms.tail", "ms", "lower", 0},
	{"features.glcm_ms", "ms", "lower", 0},
	{"features.glcm_ms.tail", "ms", "lower", 0},
	{"features.gabor_ms", "ms", "lower", 0},
	{"features.gabor_ms.tail", "ms", "lower", 0},
	{"features.tamura_ms", "ms", "lower", 0},
	{"features.tamura_ms.tail", "ms", "lower", 0},
	{"features.correlogram_ms", "ms", "lower", 0},
	{"features.correlogram_ms.tail", "ms", "lower", 0},
	{"features.naive_ms", "ms", "lower", 0},
	{"features.naive_ms.tail", "ms", "lower", 0},
	{"features.regions_ms", "ms", "lower", 0},
	{"features.regions_ms.tail", "ms", "lower", 0},
	{"core.bucket_ms", "ms", "lower", 0},
	{"core.search_ms", "ms", "lower", 0},
	{"core.search_ms.tail", "ms", "lower", 0},
	{"core.searches", "count", "higher", 0},
	{"core.row_evals_per_query", "count", "lower", 0},
	{"core.cell_evals_per_query", "count", "lower", 0},
	{"core.exact_evals_per_query", "count", "lower", 0},
	{"core.eval_ratio", "ratio", "higher", 0},
	{"core.candidates_per_query", "count", "lower", 0},
	{"core.browned_share", "ratio", "lower", 0},
	{"core.encode_ms", "ms", "lower", 0},
	{"core.open_s", "s", "lower", 0},
	{"core.warm_s", "s", "lower", 0},
	{"catalog.scan_s", "s", "lower", 0},
	{"features.parse_us_per_kf", "us", "lower", 0},
	{"vstore.page_reads_per_kf", "count", "lower", 0},
	{"store.kf", "count", "higher", 0},
	{"catalog.text_bytes_per_kf", "B", "lower", 0},
	{"cvj.decode_ms_per_frame", "ms", "lower", 0},
	{"cvj.decode_ms_per_frame.tail", "ms", "lower", 0},
	{"cvj.frames", "count", "higher", 0},
	{"keyframe.select_ms_per_clip", "ms", "lower", 0},
	{"keyframe.select_ms_per_clip.tail", "ms", "lower", 0},
	{"keyframe.kf_per_clip", "count", "higher", 0},
	{"ingest.clips", "count", "higher", 0},
	{"ingest.kf", "count", "higher", 0},
	{"core.ingest_residual_ms", "ms", "lower", 0},
	{"vstore.page_writes_per_kf", "count", "lower", 0},
	{"vstore.wal_records_per_kf", "count", "lower", 0},
	{"vstore.commits_per_ingest", "count", "lower", 0},
	{"vstore.fsyncs_per_ingest", "count", "lower", 0},
	{"server.search_handler_p50_ms", "ms", "lower", 0},
	{"server.search_handler_tail_ms", "ms", "lower", 0},
	{"server.ingest_handler_p50_ms", "ms", "lower", 0},
	{"server.ingest_handler_tail_ms", "ms", "lower", 0},
	{"server.transport_p50_ms", "ms", "lower", 0},
	{"server.transport_tail_ms", "ms", "lower", 0},
	{"admission.requests", "count", "higher", 0},
	{"admission.shed_share", "ratio", "lower", 0},
	{"admission.search_queued_mean", "count", "lower", 0},
	{"admission.level_max", "ratio", "lower", 0},
	{"runtime.ops", "count", "higher", 0},
	{"runtime.alloc_bytes_per_op", "B", "lower", 0},
	{"runtime.gc_per_1k_ops", "count", "lower", 0},
	{"loadgen.open_requests", "count", "higher", 0},
	{"loadgen.late_p99_ms", "ms", "lower", 0},
	{"search.n", "count", "higher", 0},
	{"search.tail_pct", "%", "higher", 0},
	{"ingest.n", "count", "higher", 0},
	{"ingest.tail_pct", "%", "higher", 0},
	{"trace.spans", "count", "higher", 0},
	{"trace.overhead_ms", "ms", "lower", 0},
	{"trace.overhead_share", "ratio", "lower", 0},
}
