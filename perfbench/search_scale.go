package main

import (
	"fmt"
	"sync"
	"time"

	"cbvr/internal/catalog"
	"cbvr/internal/core"
	"cbvr/internal/features"
	"cbvr/internal/synthvid"
	"cbvr/internal/vstore"
)

// search_scale: a 20k-key-frame clustered descriptor corpus written as
// real KEY_FRAMES rows, reopened through core.Open and searched with
// descriptor-space queries straight through Engine.SearchWithSetStats.
const (
	ssFrames       = 20000 // key frames in the store
	ssBatchRows    = 100   // rows per load transaction
	ssReopens      = 3     // timed reopens of the ~590 MB store
	ssQueries      = 256   // distinct cluster queries
	ssSingleEvery  = 4     // every 4th search is single-kind, cycling the seven kinds
	ssRecallSample = 48    // fused queries in the recall@10 sample
	ssKindChecks   = 2     // reference-checked queries per single kind
	recallFloor    = 0.95  // the repository's recall@10 floor
)

func runSearchScale(e *env) error {
	cfg := synthvid.ClusterCorpusConfig{Frames: ssFrames, Seed: e.seed}
	path, err := freshStore(e.dir, "search_scale")
	if err != nil {
		return err
	}
	if err := loadStore(e, path, cfg); err != nil {
		return err
	}
	if err := storeGrowth(e, path, 0, ssFrames); err != nil {
		return err
	}
	qs := synthvid.ClusterQueries(cfg, ssQueries)
	eng, err := reopen(e, path, decodedQuery{set: qs[0].Set, bucket: qs[0].Bucket}, ssReopens)
	if err != nil {
		return err
	}
	defer eng.Close()

	kinds := features.AllKinds()
	options := func(seq int) core.SearchOptions {
		if seq%ssSingleEvery == ssSingleEvery-1 {
			return core.SearchOptions{K: searchK, Kinds: []features.Kind{kinds[(seq/ssSingleEvery)%len(kinds)]}}
		}
		return core.SearchOptions{K: searchK}
	}
	var mu sync.Mutex
	var stats []core.SearchStats
	search := func(seq int) error {
		q := qs[seq%len(qs)]
		var tr *tracer
		if e.tracedSeq(seq, len(qs)) {
			tr = e.tr
		}
		var st core.SearchStats
		var err error
		tr.call("core.SearchWithSetStats", 0, int64(seq+1), func() {
			_, st, err = eng.SearchWithSetStats(q.Set, q.Bucket, options(seq))
		})
		if tr != nil && err == nil {
			mu.Lock()
			stats = append(stats, st)
			mu.Unlock()
		}
		return err
	}
	win := openWindow(e, eng)
	t0 := time.Now()
	closed := closedLoop(realClock{}, e.procs, e.window, search)
	wall := time.Since(t0)
	e.res.count(closed)
	win.finish(e, eng, len(closed))
	e.res.e2e["search_qps"] = float64(len(closed)-countFailed(closed)) / wall.Seconds()
	e.res.note("%-34s %.2f searches/s over %.2f s, %d clients (closed loop, 1 in %d single-kind)", "capacity", e.res.e2e["search_qps"], wall.Seconds(), e.procs, ssSingleEvery)
	searchLatency(e, "closed loop", closed)
	servedShare(e)

	// Correctness: single-kind searches are exact by contract, and the
	// pruned fused ranking must hold the recall floor.
	for ki, kind := range kinds {
		for j := 0; j < ssKindChecks; j++ {
			q := qs[(ki*ssKindChecks+j)%len(qs)]
			opt := core.SearchOptions{K: searchK, Kinds: []features.Kind{kind}}
			got, _, err := eng.SearchWithSetStats(q.Set, q.Bucket, opt)
			if err != nil {
				return err
			}
			ref, err := eng.SearchWithSetReference(q.Set, q.Bucket, opt)
			if err != nil {
				return err
			}
			e.res.check(sameEngineMatches(got, ref), "%v query %d: results differ from SearchWithSetReference", kind, q.ID)
		}
	}
	sample := make([]decodedQuery, ssRecallSample)
	for i := range sample {
		sample[i] = decodedQuery{set: qs[i].Set, bucket: qs[i].Bucket}
	}
	recall, err := recallAt10(eng, sample)
	if err != nil {
		return err
	}
	e.res.e2e["recall_at_10"] = recall
	e.res.check(recall >= recallFloor, "recall@10 %.4f below the %.2f floor", recall, recallFloor)
	e.res.note("%-34s %.4f over %d fused queries (floor %.2f)", "recall@10", recall, len(sample), recallFloor)
	if err := scanAndParse(e, eng); err != nil {
		return err
	}

	if e.traced() {
		overhead(e, closed, len(qs))
		searchStatsMetrics(e, stats)
		spanMetrics(e)
	}
	return nil
}

// loadStore writes the corpus as VIDEO_STORE and KEY_FRAMES rows through
// the catalog, ssBatchRows per transaction with the default fsync on
// every commit. Generating a batch is untimed; formatting, inserting and
// committing it is one ingest sample. setup_s is the load's total.
func loadStore(e *env, path string, cfg synthvid.ClusterCorpusConfig) error {
	opts := engineOptions(e.fs).Store
	st, err := catalog.Open(path, &opts)
	if err != nil {
		return err
	}
	io0 := e.fs.snapshot()
	var batch []*synthvid.DescriptorFrame
	var samples []sample
	flush := func() error {
		t0 := time.Now()
		tx, err := st.Begin()
		if err != nil {
			return err
		}
		for _, f := range batch {
			if err := insertFrame(st, tx, f); err != nil {
				tx.Abort()
				return err
			}
		}
		if err := tx.Commit(); err != nil {
			return err
		}
		samples = append(samples, sample{d: time.Since(t0)})
		batch = batch[:0]
		return nil
	}
	err = synthvid.StreamClusterCorpus(cfg, func(f *synthvid.DescriptorFrame) error {
		batch = append(batch, f)
		if len(batch) == ssBatchRows {
			return flush()
		}
		return nil
	})
	if err == nil && len(batch) > 0 {
		err = flush()
	}
	if err != nil {
		st.Close()
		return fmt.Errorf("load store: %w", err)
	}
	db := st.DB().Stats()
	io := e.fs.snapshot().sub(io0)
	if err := st.Close(); err != nil {
		return err
	}
	var total time.Duration
	for _, s := range samples {
		total += s.d
	}
	r := e.res
	r.e2e["setup_s"] = total.Seconds()
	r.e2e["ingest_kf_per_s"] = float64(ssFrames) / total.Seconds()
	ingestLatency(e, fmt.Sprintf("one %d-row load transaction", ssBatchRows), samples)
	r.note("%-34s %.3f s for %d rows in %d transactions", "setup (store load)", total.Seconds(), ssFrames, len(samples))
	r.layer["ingest.kf"] = ssFrames
	r.layer["ingest.clips"] = float64(len(samples))
	r.layer["vstore.page_writes_per_kf"] = io.pageWrites / ssFrames
	r.layer["vstore.wal_records_per_kf"] = float64(db.WALRecords) / ssFrames
	r.layer["vstore.commits_per_ingest"] = float64(db.Commits) / float64(len(samples))
	r.layer["vstore.fsyncs_per_ingest"] = io.syncs / float64(len(samples))
	return nil
}

// insertFrame writes one descriptor frame, opening its video's row with
// the video's first frame.
func insertFrame(st *catalog.Store, tx *vstore.Txn, f *synthvid.DescriptorFrame) error {
	if f.FrameIndex == 0 {
		if _, err := st.InsertVideo(tx, &catalog.Video{ID: f.VideoID, Name: f.VideoName}); err != nil {
			return err
		}
	}
	s := f.Set
	_, err := st.InsertKeyFrame(tx, &catalog.KeyFrame{
		ID:           f.ID,
		Name:         fmt.Sprintf("%s#%04d", f.VideoName, f.FrameIndex),
		Min:          f.Bucket.Min,
		Max:          f.Bucket.Max,
		SCH:          s.Histogram.String(),
		GLCM:         s.GLCM.String(),
		Gabor:        s.Gabor.String(),
		Tamura:       s.Tamura.String(),
		ACC:          s.Correlogram.String(),
		Naive:        s.Naive.String(),
		Regions:      s.Regions.String(),
		MajorRegions: s.Regions.Major,
		VideoID:      f.VideoID,
		FrameIndex:   f.FrameIndex,
	})
	return err
}

// sameEngineMatches compares two rankings field by field, distances bit
// for bit.
func sameEngineMatches(a, b []core.Match) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
