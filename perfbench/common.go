package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"cbvr/internal/admission"
	"cbvr/internal/catalog"
	"cbvr/internal/core"
	"cbvr/internal/cvj"
	"cbvr/internal/features"
	"cbvr/internal/imaging"
	"cbvr/internal/keyframe"
	"cbvr/internal/rangeindex"
	"cbvr/internal/vstore"
)

// setupRepeats is how many times a workload with a cheap set-up builds
// its starting state; setup_s is the median.
const setupRepeats = 3

// smallReopens is how many times the HTTP workloads reopen their small
// stores to time open_ready_s (a few milliseconds each); the median is
// reported.
const smallReopens = 15

// medianSeconds is the median of durations in seconds.
func medianSeconds(ds []time.Duration) float64 {
	return summarize(durations(ds, time.Second)).median
}

// ingestAll uploads every clip through /api/v1/ingest, one after the
// other, and returns the per-upload samples and committed key frames.
// Any failed upload is an error: set-up must not fail.
func ingestAll(f *httpFixture, clips []clip) ([]sample, int, error) {
	samples := make([]sample, len(clips))
	kf := 0
	for i, c := range clips {
		t0 := time.Now()
		res, err := f.ingest(c, c.name, 0)
		if err != nil {
			return nil, 0, fmt.Errorf("set-up ingest of %s: %w", c.name, err)
		}
		samples[i] = sample{d: time.Since(t0), seq: i}
		kf += len(res.KeyFrameIDs)
	}
	return samples, kf, nil
}

// setupHTTP builds a workload's starting state setupRepeats times — a
// fresh store behind the HTTP handler, loaded with clips through
// /api/v1/ingest by one uploader (the engine extracts each upload's key
// frames on all procs) — keeping the last. It records
// setup_s and returns the kept fixture with the set-up ingest samples.
func setupHTTP(e *env, name string, clips []clip) (*httpFixture, []sample, int, error) {
	var times []time.Duration
	var all []sample
	var f *httpFixture
	kf := 0
	for r := 0; r < setupRepeats; r++ {
		last := r == setupRepeats-1
		path, err := freshStore(e.dir, fmt.Sprintf("%s-%d", name, r))
		if err != nil {
			return nil, nil, 0, err
		}
		var tr *tracer
		var fs *countFS
		if last {
			tr, fs = e.tr, e.fs
		}
		t0 := time.Now()
		f, err = startHTTP(path, tr, fs)
		if err != nil {
			return nil, nil, 0, err
		}
		ss, n, err := ingestAll(f, clips)
		times = append(times, time.Since(t0))
		all = append(all, ss...)
		kf = n
		if err != nil {
			f.stop()
			return nil, nil, 0, err
		}
		if !last {
			if err := f.stop(); err != nil {
				return nil, nil, 0, err
			}
		}
	}
	e.res.e2e["setup_s"] = medianSeconds(times)
	e.res.note("%-34s %s (s, %d set-ups of %d clips, %d key frames each)", "setup", summarize(durations(times, time.Second)), setupRepeats, len(clips), kf)
	return f, all, kf, nil
}

// searchLatency records search_p50_ms/search_p99_ms from a phase's
// samples, failures counting as misses of any limit.
func searchLatency(e *env, label string, ss []sample) {
	s := summarizeSamples(ss)
	e.res.e2e["search_p50_ms"] = s.median
	e.res.e2e["search_p99_ms"] = s.tail
	e.res.layer["search.n"] = float64(s.n)
	e.res.layer["search.tail_pct"] = s.tailPct
	e.res.note("%-34s %s (ms, %s)", "search latency", s, label)
}

// ingestLatency records the ingest latency metrics.
func ingestLatency(e *env, label string, ss []sample) {
	s := summarizeSamples(ss)
	e.res.e2e["ingest_p50_ms"] = s.median
	e.res.e2e["ingest_p99_ms"] = s.tail
	e.res.layer["ingest.n"] = float64(s.n)
	e.res.layer["ingest.tail_pct"] = s.tailPct
	e.res.note("%-34s %s (ms, %s)", "ingest latency", s, label)
}

// servedShare records served_share = 1 - failed/attempted over the
// timed phases counted so far.
func servedShare(e *env) {
	r := e.res
	share := 0.0
	if r.attempted > 0 {
		share = 1 - float64(r.failed)/float64(r.attempted)
	}
	r.e2e["served_share"] = share
	r.note("%-34s attempted=%d failed=%d failed_share=%.4f", "requests", r.attempted, r.failed, 1-share)
}

// heapNow is the live heap after a full collection.
func heapNow() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// reopen times core.Open up to the first answered search `rounds`
// times and records open_ready_s and heap_bytes_per_kf, plus the
// open-path layer metrics. The last engine is returned open.
func reopen(e *env, path string, q decodedQuery, rounds int) (*core.Engine, error) {
	var ready, opens, warms []time.Duration
	var eng *core.Engine
	var heapPerKF float64
	var pages ioCounts
	kf := 0
	for r := 0; r < rounds; r++ {
		if eng != nil {
			err := eng.Close()
			eng = nil // the closed engine's cache must not count in the base
			if err != nil {
				return nil, err
			}
		}
		base := heapNow()
		io0 := e.fs.snapshot()
		t0 := time.Now()
		var err error
		eng, err = core.Open(path, engineOptions(e.fs))
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		if _, _, err := eng.SearchWithSetStats(q.set, q.bucket, core.SearchOptions{K: searchK}); err != nil {
			eng.Close()
			return nil, fmt.Errorf("first search after reopen: %w", err)
		}
		t2 := time.Now()
		pages = e.fs.snapshot().sub(io0)
		// A second, warm search prices the search itself, so warm_s is
		// the first search's cost beyond it.
		if _, _, err := eng.SearchWithSetStats(q.set, q.bucket, core.SearchOptions{K: searchK}); err != nil {
			eng.Close()
			return nil, err
		}
		steady := time.Since(t2)
		ready = append(ready, t2.Sub(t0))
		opens = append(opens, t1.Sub(t0))
		warms = append(warms, t2.Sub(t1)-steady)
		if kf, err = eng.Store().CountKeyFrames(nil); err != nil {
			eng.Close()
			return nil, err
		}
		heapPerKF = (float64(heapNow()) - float64(base)) / float64(kf)
	}
	r := e.res
	r.e2e["open_ready_s"] = medianSeconds(ready)
	r.e2e["heap_bytes_per_kf"] = heapPerKF
	r.layer["store.kf"] = float64(kf)
	r.layer["core.open_s"] = medianSeconds(opens)
	r.layer["core.warm_s"] = medianSeconds(warms)
	r.layer["vstore.page_reads_per_kf"] = pages.pageReads / float64(kf)
	r.note("%-34s %s (s, core.Open to first answered search)", "open_ready", summarize(durations(ready, time.Second)))
	r.note("%-34s %.0f B/kf over %d key frames", "heap after warm", heapPerKF, kf)
	return eng, nil
}

// storeGrowth records store_bytes_per_kf: how much the closed store at
// path grew beyond before bytes, per key frame committed meanwhile.
func storeGrowth(e *env, path string, before int64, kf int) error {
	sz, err := storeBytes(path)
	if err != nil {
		return err
	}
	e.res.e2e["store_bytes_per_kf"] = float64(sz-before) / float64(kf)
	e.res.note("%-34s %d B grown over %d committed key frames (%.0f B/kf)", "store growth", sz-before, kf, e.res.e2e["store_bytes_per_kf"])
	return nil
}

// scanAndParse times, from outside the engine, the two halves of the
// warm path: a full catalog scan of KEY_FRAMES, and features.Parse of
// every descriptor string of a sample of rows. It also reports the
// descriptor text bytes per row, the base of store_bytes_per_kf.
func scanAndParse(e *env, eng *core.Engine) error {
	const parseSample = 400
	type row struct{ strs [7]string }
	var rows []row
	var textBytes, n int64
	t0 := time.Now()
	err := eng.Store().ScanKeyFrames(nil, func(k *catalog.KeyFrame) (bool, error) {
		r := row{[7]string{k.SCH, k.GLCM, k.Gabor, k.Tamura, k.ACC, k.Naive, k.Regions}}
		for _, s := range r.strs {
			textBytes += int64(len(s))
		}
		n++
		if len(rows) < parseSample {
			rows = append(rows, r)
		}
		return true, nil
	})
	scan := time.Since(t0)
	if err != nil {
		return err
	}
	kinds := [7]features.Kind{features.KindHistogram, features.KindGLCM, features.KindGabor,
		features.KindTamura, features.KindCorrelogram, features.KindNaive, features.KindRegions}
	per := make([]time.Duration, 0, len(rows))
	for _, r := range rows {
		t := time.Now()
		for i, s := range r.strs {
			if s == "" {
				continue
			}
			if _, err := features.Parse(kinds[i], s); err != nil {
				return fmt.Errorf("parse stored %v descriptor: %w", kinds[i], err)
			}
		}
		per = append(per, time.Since(t))
	}
	e.res.layer["catalog.scan_s"] = scan.Seconds()
	e.res.layerTiming("features.parse_us_per_kf", summarize(durations(per, time.Microsecond)))
	if n > 0 {
		e.res.layer["catalog.text_bytes_per_kf"] = float64(textBytes) / float64(n)
	}
	e.res.note("%-34s %.3f s over %d rows, %.0f descriptor-text B/row", "catalog scan", scan.Seconds(), n, e.res.layer["catalog.text_bytes_per_kf"])
	return nil
}

// recallAt10 is the mean overlap of the pruned fused top-10 with the
// exact (NoCellPruning) top-10 over the given queries.
func recallAt10(eng *core.Engine, qs []decodedQuery) (float64, error) {
	total := 0.0
	for _, q := range qs {
		pruned, _, err := eng.SearchWithSetStats(q.set, q.bucket, core.SearchOptions{K: searchK})
		if err != nil {
			return 0, err
		}
		exact, _, err := eng.SearchWithSetStats(q.set, q.bucket, core.SearchOptions{K: searchK, NoCellPruning: true})
		if err != nil {
			return 0, err
		}
		want := make(map[int64]bool, len(exact))
		for _, m := range exact {
			want[m.KeyFrameID] = true
		}
		hit := 0
		for _, m := range pruned {
			if want[m.KeyFrameID] {
				hit++
			}
		}
		if len(exact) > 0 {
			total += float64(hit) / float64(len(exact))
		} else {
			total++
		}
	}
	return total / float64(len(qs)), nil
}

// tallyWindow captures the engine's search tally, the runtime's
// allocation counters and the storage counters at the start of a timed
// phase; finish turns the deltas into per-layer metrics.
type tallyWindow struct {
	tally core.SearchTallySnapshot
	mem   runtime.MemStats
	db    vstore.Stats
	io    ioCounts
}

func openWindow(e *env, eng *core.Engine) *tallyWindow {
	w := &tallyWindow{tally: eng.SearchTally(), db: eng.Store().DB().Stats(), io: e.fs.snapshot()}
	runtime.ReadMemStats(&w.mem)
	return w
}

// finish records the runtime and search-tally metrics for ops timed
// operations.
func (w *tallyWindow) finish(e *env, eng *core.Engine, ops int) {
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	t := eng.SearchTally()
	r := e.res
	r.layer["runtime.ops"] = float64(ops)
	if ops > 0 {
		r.layer["runtime.alloc_bytes_per_op"] = float64(mem.TotalAlloc-w.mem.TotalAlloc) / float64(ops)
		r.layer["runtime.gc_per_1k_ops"] = 1000 * float64(mem.NumGC-w.mem.NumGC) / float64(ops)
	}
	searches := t.Searches - w.tally.Searches
	r.layer["core.searches"] = float64(searches)
	if searches > 0 {
		r.layer["core.browned_share"] = float64(t.BrownedSearches-w.tally.BrownedSearches) / float64(searches)
	}
	r.note("%-34s searches=%d browned=%d row_evals=%d cell_evals=%d", "engine search tally", searches,
		t.BrownedSearches-w.tally.BrownedSearches, t.RowEvals-w.tally.RowEvals, t.CellEvals-w.tally.CellEvals)
}

// storage records the write-side storage metrics for a phase that
// committed kf key frames over ingests ingest operations.
func (w *tallyWindow) storage(e *env, eng *core.Engine, kf, ingests int) {
	db := eng.Store().DB().Stats()
	io := e.fs.snapshot().sub(w.io)
	r := e.res
	r.layer["ingest.kf"] = float64(kf)
	r.layer["ingest.clips"] = float64(ingests)
	if kf > 0 {
		r.layer["vstore.page_writes_per_kf"] = io.pageWrites / float64(kf)
		r.layer["vstore.wal_records_per_kf"] = float64(db.WALRecords-w.db.WALRecords) / float64(kf)
	}
	if ingests > 0 {
		r.layer["vstore.commits_per_ingest"] = float64(db.Commits-w.db.Commits) / float64(ingests)
		r.layer["vstore.fsyncs_per_ingest"] = io.syncs / float64(ingests)
	}
}

// searchStatsMetrics records the per-query work counters.
func searchStatsMetrics(e *env, stats []core.SearchStats) {
	if len(stats) == 0 {
		return
	}
	var rows, cells, exact, cand int64
	for _, s := range stats {
		rows += s.RowEvals
		cells += s.CellEvals
		exact += s.ExactEvals()
		cand += s.Candidates
	}
	n := float64(len(stats))
	r := e.res
	r.layer["core.row_evals_per_query"] = float64(rows) / n
	r.layer["core.cell_evals_per_query"] = float64(cells) / n
	r.layer["core.exact_evals_per_query"] = float64(exact) / n
	r.layer["core.candidates_per_query"] = float64(cand) / n
	if rows+cells > 0 {
		r.layer["core.eval_ratio"] = float64(exact) / float64(rows+cells)
	}
	r.note("%-34s %.0f row + %.0f cell evals/query against %.0f exact (n=%d)", "search work", float64(rows)/n, float64(cells)/n, float64(exact)/n, len(stats))
}

// admissionSampler polls the server's admission controller while a
// phase runs.
type admissionSampler struct {
	stop   chan struct{}
	done   chan struct{}
	shed0  int64
	queued []int
	level  float64
	shed   int64
}

func sampleAdmission(f *httpFixture) *admissionSampler {
	a := &admissionSampler{stop: make(chan struct{}), done: make(chan struct{}), shed0: totalShed(f.srv.Admission().Snapshot())}
	go func() {
		defer close(a.done)
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			snap := f.srv.Admission().Snapshot()
			a.level = max(a.level, snap.Level)
			for _, c := range snap.Classes {
				if c.Class == admission.Search.String() {
					a.queued = append(a.queued, c.Queued)
				}
			}
			a.shed = totalShed(snap) - a.shed0
			select {
			case <-a.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return a
}

func totalShed(s admission.Snapshot) int64 {
	var n int64
	for _, c := range s.Classes {
		n += c.Shed
	}
	return n
}

// finish stops the sampler and records the admission metrics for a
// phase that sent requests HTTP requests.
func (a *admissionSampler) finish(e *env, requests int) {
	close(a.stop)
	<-a.done
	sum := 0
	for _, q := range a.queued {
		sum += q
	}
	r := e.res
	r.layer["admission.requests"] = float64(requests)
	if requests > 0 {
		r.layer["admission.shed_share"] = float64(a.shed) / float64(requests)
	}
	if len(a.queued) > 0 {
		r.layer["admission.search_queued_mean"] = float64(sum) / float64(len(a.queued))
	}
	r.layer["admission.level_max"] = a.level
	r.note("%-34s shed=%d of %d, level_max=%.3f, search_queued_mean=%.3f (%d polls)", "admission", a.shed, requests, a.level, r.layer["admission.search_queued_mean"], len(a.queued))
}

// lateness records how late the open-loop generator started requests.
func lateness(e *env, res openResult) {
	s := summarize(durations(res.late, time.Millisecond))
	e.res.layer["loadgen.open_requests"] = float64(len(res.samples))
	e.res.layer["loadgen.late_p99_ms"] = s.tail
	e.res.note("%-34s %s (ms behind schedule)", "loadgen lateness", s)
}

// handlerMetrics derives the server and transport timings from the
// client and server spans of one route.
func handlerMetrics(e *env, route string) {
	spans := e.tr.snapshot()
	self := selfTimes(spans)
	var handler []time.Duration
	for _, s := range spans {
		if s.Name == "server."+route {
			handler = append(handler, s.dur())
		}
	}
	hs := summarize(durations(handler, time.Millisecond))
	e.res.layer["server."+route+"_handler_p50_ms"] = hs.median
	e.res.layer["server."+route+"_handler_tail_ms"] = hs.tail
	e.res.note("%-34s %s", "server."+route+" handler ms", hs)
	if route == "search" {
		ts := summarize(durations(selfByName(spans, self, "client.search"), time.Millisecond))
		e.res.layer["server.transport_p50_ms"] = ts.median
		e.res.layer["server.transport_tail_ms"] = ts.tail
		e.res.note("%-34s %s", "transport ms (client - handler)", ts)
	}
}

// tracedSeq decides which operations of a traced run record spans:
// whole cycles through the period distinct inputs alternate, so the
// traced and untraced halves see the same inputs under the same load.
// The untraced half prices the tracing. Untraced runs trace nothing.
func (e *env) tracedSeq(seq, period int) bool {
	return e.traced() && (seq/period)%2 == 0
}

// reqID is the trace request id of operation seq: 0 (untraced) unless
// tracedSeq picks it.
func (e *env) reqID(seq, period int, base int64) int64 {
	if !e.tracedSeq(seq, period) {
		return 0
	}
	return base + int64(seq) + 1
}

// overhead compares the search p50 of the traced and untraced halves of
// one phase (see tracedSeq).
func overhead(e *env, ss []sample, period int) {
	var traced, control []sample
	for _, s := range ss {
		if e.tracedSeq(s.seq, period) {
			traced = append(traced, s)
		} else {
			control = append(control, s)
		}
	}
	t := summarizeSamples(traced).median
	c := summarizeSamples(control).median
	e.res.layer["trace.overhead_ms"] = t - c
	if c > 0 {
		e.res.layer["trace.overhead_share"] = (t - c) / c
	}
	e.res.note("%-34s traced p50 %.3f ms (n=%d) vs untraced %.3f ms (n=%d)", "tracing overhead", t, len(traced), c, len(control))
}

// kindSpan names the span of each extractor call.
var kindSpan = map[features.Kind]string{
	features.KindHistogram:   "features.ExtractColorHistogramWith",
	features.KindGLCM:        "features.ExtractGLCMWith",
	features.KindGabor:       "features.ExtractGaborWith",
	features.KindTamura:      "features.ExtractTamuraWith",
	features.KindCorrelogram: "features.ExtractCorrelogramWith",
	features.KindNaive:       "features.ExtractNaiveWith",
	features.KindRegions:     "features.ExtractRegionsWith",
}

// kindMetric names the per-layer metric of each extractor.
var kindMetric = map[features.Kind]string{
	features.KindHistogram:   "features.histogram_ms",
	features.KindGLCM:        "features.glcm_ms",
	features.KindGabor:       "features.gabor_ms",
	features.KindTamura:      "features.tamura_ms",
	features.KindCorrelogram: "features.correlogram_ms",
	features.KindNaive:       "features.naive_ms",
	features.KindRegions:     "features.regions_ms",
}

// extractTraced computes planes and the descriptors, each call under its
// own child span of parent. A non-nil sig is installed as the naive
// signature instead of sampling it again, as ingest does with the
// selection-time signature.
func extractTraced(tr *tracer, parent, req int64, im *imaging.Image, sig *features.NaiveSignature) (*features.Set, *features.Planes) {
	var p *features.Planes
	tr.call("features.NewPlanes", parent, req, func() { p = features.NewPlanes(im) })
	set := &features.Set{}
	for _, k := range features.AllKinds() {
		if k == features.KindNaive && sig != nil {
			set.Put(sig)
			continue
		}
		var d features.Descriptor
		tr.call(kindSpan[k], parent, req, func() { d, _ = features.ExtractWith(k, p) })
		set.Put(d)
	}
	return set, p
}

// searchReplay runs a sample of query frames back through the layer
// entry points the search handler uses, in request order, each under a
// child span: decode, planes, the seven extractors, bucket, search,
// JSON encode. It records the imaging, features and core metrics.
func searchReplay(e *env, eng *core.Engine, queries [][]byte, rounds int) error {
	tr := e.tr
	var stats []core.SearchStats
	rescale0 := imaging.RescaleCalls()
	n := 0
	for r := 0; r < rounds; r++ {
		for i, jpeg := range queries {
			req := int64(1_000_000 + r*len(queries) + i)
			root := tr.open("replay.search", 0, req)
			var im *imaging.Image
			var err error
			tr.call("imaging.DecodeJPEG", root.ID, req, func() { im, err = imaging.DecodeJPEG(bytes.NewReader(jpeg)) })
			if err != nil {
				return err
			}
			set, p := extractTraced(tr, root.ID, req, im, nil)
			var bucket rangeindex.Range
			tr.call("core.BucketFromPlanes", root.ID, req, func() { bucket = core.BucketFromPlanes(p) })
			var ms []core.Match
			var st core.SearchStats
			tr.call("core.SearchWithSetStats", root.ID, req, func() {
				ms, st, err = eng.SearchWithSetStats(set, bucket, core.SearchOptions{K: searchK})
			})
			if err != nil {
				return err
			}
			tr.call("json.Encode", root.ID, req, func() { err = encodeMatches(io.Discard, ms) })
			if err != nil {
				return err
			}
			tr.close(root)
			stats = append(stats, st)
			n++
		}
	}
	e.res.layer["imaging.rescale_calls_per_query"] = float64(imaging.RescaleCalls()-rescale0) / float64(n)
	searchStatsMetrics(e, stats)
	return nil
}

// encodeMatches renders matches the way the search handler does.
func encodeMatches(w io.Writer, ms []core.Match) error {
	out := make([]matchJSON, len(ms))
	for i, m := range ms {
		out[i] = matchJSON{KeyFrameID: m.KeyFrameID, VideoID: m.VideoID, VideoName: m.VideoName, FrameIndex: m.FrameIndex, Distance: m.Distance}
	}
	return json.NewEncoder(w).Encode(map[string]any{"matches": out})
}

// spanMetrics turns the recorded spans' self times into the per-layer
// timing metrics.
func spanMetrics(e *env) {
	spans := e.tr.snapshot()
	self := selfTimes(spans)
	timing := func(metric, span string, unit time.Duration) {
		ds := selfByName(spans, self, span)
		if len(ds) > 0 {
			e.res.layerTiming(metric, summarize(durations(ds, unit)))
		}
	}
	timing("imaging.decode_ms", "imaging.DecodeJPEG", time.Millisecond)
	timing("features.planes_ms", "features.NewPlanes", time.Millisecond)
	for _, k := range features.AllKinds() {
		timing(kindMetric[k], kindSpan[k], time.Millisecond)
	}
	e.res.layer["features.frames"] = float64(len(selfByName(spans, self, "features.NewPlanes")))
	timing("core.bucket_ms", "core.BucketFromPlanes", time.Millisecond)
	timing("core.search_ms", "core.SearchWithSetStats", time.Millisecond)
	timing("core.encode_ms", "json.Encode", time.Millisecond)
	timing("cvj.decode_ms_per_frame", "cvj.NextFrame", time.Millisecond)
	timing("keyframe.select_ms_per_clip", "keyframe.ExtractStream", time.Millisecond)
	e.res.layer["cvj.frames"] = float64(len(selfByName(spans, self, "cvj.NextFrame")))
}

// tracedFrames is a keyframe.FrameReader over a CVJ reader that puts
// every NextFrame call under a span and hands selection the frame
// rescaled to the analysis raster, as the engine's ingest does (the
// rescale is its own span).
type tracedFrames struct {
	tr     *tracer
	cr     *cvj.Reader
	parent int64
	req    int64
}

func (t *tracedFrames) Next() (*imaging.Image, error) {
	var f *cvj.Frame
	var err error
	t.tr.call("cvj.NextFrame", t.parent, t.req, func() { f, err = t.cr.NextFrame() })
	if err != nil {
		return nil, err
	}
	var im *imaging.Image
	t.tr.call("imaging.Rescale", t.parent, t.req, func() { im = f.Image.Rescale(features.AnalysisSize, features.AnalysisSize) })
	return im, nil
}

// ingestReplay runs clips back through the ingest stages outside the
// engine: cvj.NewReader/NextFrame, the rescale to the analysis raster,
// keyframe.ExtractStream and, for each selected key frame, planes plus
// the extractors on procs workers, as the engine's ingest does. Decode
// and rescale spans are children of the selection span, so selection's
// self time excludes them. It returns the wall time of each clip's
// replay.
func ingestReplay(e *env, clips []clip) ([]time.Duration, error) {
	tr := e.tr
	var walls []time.Duration
	kfs := 0
	for i, c := range clips {
		req := int64(2_000_000 + i)
		t0 := time.Now()
		root := tr.open("replay.ingest", 0, req)
		var cr *cvj.Reader
		var err error
		tr.call("cvj.NewReader", root.ID, req, func() { cr, err = cvj.NewReader(bytes.NewReader(c.cvj)) })
		if err != nil {
			return nil, err
		}
		jobs := make(chan *keyframe.KeyFrame, e.procs)
		var wg sync.WaitGroup
		for w := 0; w < e.procs; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := range jobs {
					extractTraced(tr, root.ID, req, k.Image, k.Signature)
				}
			}()
		}
		sel := tr.open("keyframe.ExtractStream", root.ID, req)
		err = keyframe.Extractor{}.ExtractStream(&tracedFrames{tr: tr, cr: cr, parent: sel.ID, req: req}, func(k *keyframe.KeyFrame) error {
			kfs++
			jobs <- k
			return nil
		})
		tr.close(sel)
		close(jobs)
		wg.Wait()
		tr.close(root)
		if err != nil {
			return nil, err
		}
		walls = append(walls, time.Since(t0))
	}
	e.res.layer["keyframe.kf_per_clip"] = float64(kfs) / float64(len(clips))
	return walls, nil
}
