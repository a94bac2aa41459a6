// Command perfbench is cbvr's end-to-end benchmark. It drives the real
// packages — the cbvr-server handler, the engine, the catalog and the
// store — with inputs generated from a seed, checks that the answers are
// correct, and prints every metric by name and unit. Per-layer figures
// come from a separate traced run that times calls into each layer's
// public functions from this package; the program itself is not
// instrumented.
//
// # Running
//
// From the repository root (the script builds this module into
// .bench_build/ and runs it; Go's caches stay there too):
//
//	bash perfbench/run.sh --workload query_http --seed 1 --seconds 30 --trace 0
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones
// and writes the spans to .bench_build/trace-<workload>-seed<n>.jsonl.
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
// A run whose outputs fail a check prints "CHECK FAILED" lines, no
// metrics, and exits 1; an operational error exits 2. BENCHMARK.json at
// the repository root lists the workloads and metrics the baseline is
// taken on; baseline.json beside this file records the host and the
// baseline figures, and `go test` here checks BENCHMARK.json against the
// tables in metrics.go.
//
// Load comes from this one process with GOMAXPROCS = nproc, and no load
// generator runs more client goroutines than that. Every store keeps
// the default flush policy (vstore.Options.NoWALSync=false: fsync on
// every commit).
//
// # Workloads
//
// query_http: cbvr-server's handler (server.New) on loopback over a store
// of 24 synthvid clips (24 frames, 6 shots; about 115 key frames)
// uploaded through POST /api/v1/ingest by one client. Held-out JPEG
// frames go to POST /api/v1/search?k=10 in alternating 5-second slices:
// 2 closed-loop clients (capacity, search_qps), then an open loop at a
// fixed 16 searches/s — about half the capacity on a 2-core Xeon — on 2
// workers (search_p50_ms, search_p99_ms). Featurizing the query frame
// dominates here; the scan takes well under a millisecond. Checks: the
// first answer to each of 8 queries is bit-identical to
// Engine.SearchWithSetReference on the same decoded frame (no shard
// reaches MinShardRows at this size, so identity is the contract).
//
// search_scale: a 20k-key-frame synthvid.StreamClusterCorpus written as
// real rows through catalog.InsertKeyFrame (100 rows per commit), reopened
// through core.Open, then 2 closed-loop clients calling
// Engine.SearchWithSetStats with synthvid.ClusterQueries: three in four
// default fused top-10 searches, one in four single-kind, cycling the
// seven kinds. No featurizing and no HTTP: cell probe, kernel sweep,
// fusion and the warm path (catalog scan, features.Parse, arena and
// cell build) do the work. Checks: single-kind answers equal the
// reference on a sample, and recall_at_10 holds the repository's 0.95
// floor. At the default options on a 2-CPU host (2 shards of 10k rows)
// the fused recall is about 0.72, so this workload fails its check there
// and is not listed in BENCHMARK.json until the engine holds the floor.
//
// ingest_mixed: the same handler over 16 base clips. One closed-loop
// client uploads 24-frame CVJ clips (4 shots, about 3 key frames each;
// 32 distinct clips in rotation) through POST /api/v1/ingest and deletes
// its oldest upload through DELETE /api/v1/videos once it holds more
// than 6, so the store stays the same size; beside it one open-loop
// client searches at a fixed 8/s. Writes
// sit beside reads: a change that speeds one side by holding a lock
// longer shows as a loss on the other. Checks: every key frame of a held
// upload is stored, every deleted video and its key frames are gone,
// vstore.Check reports a clean store, and a reopen gives the same counts.
//
// # End-to-end metrics
//
// Every workload reports every metric listed in BENCHMARK.json (all but
// open_ready_s, below); timings are medians or the tail
// percentile, which is the highest percentile with at least ten samples
// beyond it (the report states it and the sample count). A failed or
// refused request (429/503 included) counts against served_share and as
// a miss of any latency limit: it ranks above every success. Set-up and
// input generation are not timed as part of the measured window.
//
//	setup_s            s     median of 3 set-ups (fresh store, server, corpus uploads); search_scale: the store load
//	search_qps         1/s   closed-loop completed searches/s; ingest_mixed: completed open-loop searches/s
//	search_p50_ms      ms    open-loop search latency from due time; search_scale: closed loop
//	search_p99_ms      ms    tail percentile of the same
//	ingest_kf_per_s    1/s   committed key frames/s: loader (ingest_mixed), set-up uploads (query_http), store load (search_scale)
//	ingest_p50_ms      ms    upload latency; search_scale: one 100-row load transaction
//	ingest_p99_ms      ms    tail percentile of the same
//	open_ready_s       s     core.Open to first answered search, median of 15 reopens (3 on search_scale);
//	                         printed in the report only: about 10 ms on the HTTP workloads' stores, where its
//	                         run-to-run spread (0.2-0.4 of the median) is wider than any bound could be
//	heap_bytes_per_kf  B     live heap added by the reopened, warm engine, per stored key frame
//	store_bytes_per_kf B     growth of the closed store (data file plus WAL) per key frame committed meanwhile:
//	                         the set-up (query_http), the store load (search_scale), the timed phase (ingest_mixed);
//	                         the report gives the descriptor text bytes per row beside it
//	recall_at_10       ratio pruned fused top-10 against the exact (NoCellPruning) top-10
//	served_share       ratio 1 - failed_share: requests served / requests attempted
//
// failed_share itself is never a benchmark metric: it is 0 on a healthy
// run, and a gated metric must not be. The result's attempted and failed
// counts carry it, and the report prints it.
//
// # Per-layer metrics and predictions
//
// A traced run alternates whole cycles through the inputs between traced
// and untraced requests; the difference of their median latencies is
// trace.overhead_ms. After the timed phase a replay sends a sample of the
// same inputs through the layers' entry points in request order, each
// under a child span: imaging.DecodeJPEG, features.NewPlanes, each
// Extract*With, core.BucketFromPlanes, Engine.SearchWithSetStats and the
// JSON encode; for ingest cvj.NewReader/NextFrame, the analysis rescale,
// keyframe.ExtractStream and the extractors on nproc workers. Metrics
// are self times: a span's duration minus what its children cover.
// Ratios sit beside their bases (store.kf, ingest.kf, ingest.clips,
// core.searches, core.exact_evals_per_query, admission.requests,
// runtime.ops, features.frames, cvj.frames). A layer a workload does
// not reach reports 0.
//
// Each row names the end-to-end metric it should move and where; on the
// other workloads the prediction is no change.
//
//	per-layer metric                                   should move                           on            flat on
//	imaging.decode_ms, imaging.rescale_calls_per_query search_p50_ms, search_qps             query_http    search_scale
//	features.planes_ms, features.<kind>_ms (7 kinds)   search_p50_ms, search_qps             query_http    search_scale
//	the same extractor metrics                         ingest_kf_per_s                       ingest_mixed  search_scale
//	core.search_ms, core.row_evals_per_query,          search_qps, search_p99_ms             search_scale  query_http
//	  core.cell_evals_per_query, core.eval_ratio,
//	  core.candidates_per_query
//	core.browned_share (Engine.SearchTally)            recall_at_10, search_p99_ms; stays 0  all           -
//	core.open_s, core.warm_s, catalog.scan_s,          open_ready_s                          search_scale  query_http
//	  features.parse_us_per_kf, vstore.page_reads_per_kf
//	cvj.decode_ms_per_frame, keyframe.select_ms_per_clip, ingest_kf_per_s, ingest_p50_ms     ingest_mixed  search_scale
//	  keyframe.kf_per_clip
//	core.ingest_residual_ms                            ingest_p99_ms; search_p99_ms          ingest_mixed  query_http
//	vstore.page_writes_per_kf, vstore.wal_records_per_kf, ingest_kf_per_s, store_bytes_per_kf ingest_mixed, query_http
//	  vstore.commits_per_ingest, vstore.fsyncs_per_ingest                                    search_scale
//	server.search_handler_p50_ms, server.ingest_handler_p50_ms, search_p50_ms, ingest_p50_ms query_http,   search_scale
//	  server.transport_p50_ms (client span minus handler span)                               ingest_mixed
//	admission.shed_share, admission.search_queued_mean, failed_share, search_p99_ms          ingest_mixed  search_scale
//	  admission.level_max (Admission().Snapshot())
//	runtime.alloc_bytes_per_op, runtime.gc_per_1k_ops  search_p99_ms                         query_http    -
//	loadgen.late_p99_ms                                none: generator health, how late the open loop ran
//
// core.ingest_residual_ms is the median ingest handler time of clips
// uploaded to a quiet server minus the median replayed decode, select
// and extract of the same clips: spool, commit and publish. It is a
// difference of two medians of about 100 ms and reads within a few
// milliseconds of zero, negative included, while commits are cheap.
// vstore page counts come from a filesystem wrapper installed through
// vstore.Options.FS in traced runs only; vstore.DB.Stats does not count
// page I/O. On ingest_mixed the per-ingest storage counts include the
// loader's delete commits; on search_scale an "ingest" is one 100-row
// load transaction. The metric tables live in metrics.go.
package main
