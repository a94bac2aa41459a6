// Benchmarks regenerating the paper's evaluation artefacts:
//
//	BenchmarkTable1_*          Table 1 — one ranked retrieval per method
//	BenchmarkFig7_*            Fig. 7 — range-index assignment & pruning
//	BenchmarkFig8_*            Fig. 8 — each feature extractor
//	BenchmarkPipeline_*        ingest/key-frame/video-search pipelines
//	BenchmarkAblation_*        the design-choice ablations from DESIGN.md
//
// Run `go test -bench=. -benchmem` at the repository root. The shared
// corpus is built once per process; per-op numbers measure steady-state
// query/extraction cost. cmd/cbvr-bench prints the same artefacts with the
// measured precision tables.
package cbvr_test

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"cbvr"
	"cbvr/internal/core"
	"cbvr/internal/cvj"
	"cbvr/internal/eval"
	"cbvr/internal/features"
	"cbvr/internal/imaging"
	"cbvr/internal/keyframe"
	"cbvr/internal/rangeindex"
	"cbvr/internal/synthvid"
)

// benchCorpus is the shared fixture: a populated engine plus held-out
// queries with pre-extracted descriptor sets.
type benchCorpus struct {
	dir     string
	sys     *cbvr.System
	queries []eval.Query
	qsets   []*features.Set
	frame   *imaging.Image // one raw query frame
}

var (
	corpusOnce sync.Once
	corpus     *benchCorpus
	corpusErr  error
)

func sharedCorpus(b *testing.B) *benchCorpus {
	b.Helper()
	corpusOnce.Do(func() {
		dir, err := os.MkdirTemp("", "cbvr-bench-*")
		if err != nil {
			corpusErr = err
			return
		}
		sys, err := cbvr.Open(filepath.Join(dir, "bench.db"), cbvr.Options{})
		if err != nil {
			corpusErr = err
			return
		}
		cfg := eval.Table1Config{
			VideosPerCategory:  3,
			QueriesPerCategory: 2,
			Video:              synthvid.Config{Frames: 36, Shots: 5},
			Seed:               1,
		}
		if _, err := eval.BuildCorpus(sys.Engine(), cfg); err != nil {
			corpusErr = err
			return
		}
		queries := eval.BuildQueries(cfg)
		frames := make([]*imaging.Image, len(queries))
		for i, q := range queries {
			frames[i] = q.Frame
		}
		corpus = &benchCorpus{
			dir:     dir,
			sys:     sys,
			queries: queries,
			qsets:   sys.Engine().ExtractQuerySets(frames),
			frame:   queries[0].Frame,
		}
	})
	if corpusErr != nil {
		b.Fatal(corpusErr)
	}
	return corpus
}

// benchSearch times one full ranked retrieval per iteration for a method
// configuration (Table 1 inner loop).
func benchSearch(b *testing.B, opt core.SearchOptions) {
	c := sharedCorpus(b)
	opt.K = 100
	opt.NoPruning = true
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := i % len(c.qsets)
		if _, _, err := c.sys.Engine().SearchWithSetStats(c.qsets[q], core.QueryBucket(c.queries[q].Frame), opt); err != nil {
			b.Fatal(err)
		}
	}
}

// Table 1: one benchmark per paper column.
func BenchmarkTable1_GLCM(b *testing.B) {
	benchSearch(b, core.SearchOptions{Kinds: []features.Kind{features.KindGLCM}})
}
func BenchmarkTable1_Gabor(b *testing.B) {
	benchSearch(b, core.SearchOptions{Kinds: []features.Kind{features.KindGabor}})
}
func BenchmarkTable1_Tamura(b *testing.B) {
	benchSearch(b, core.SearchOptions{Kinds: []features.Kind{features.KindTamura}})
}
func BenchmarkTable1_Histogram(b *testing.B) {
	benchSearch(b, core.SearchOptions{Kinds: []features.Kind{features.KindHistogram}})
}
func BenchmarkTable1_Autocorrelogram(b *testing.B) {
	benchSearch(b, core.SearchOptions{Kinds: []features.Kind{features.KindCorrelogram}})
}
func BenchmarkTable1_SimpleRegionGrowing(b *testing.B) {
	benchSearch(b, core.SearchOptions{Kinds: []features.Kind{features.KindRegions}})
}
func BenchmarkTable1_Combined(b *testing.B) {
	benchSearch(b, core.SearchOptions{})
}

// BenchmarkTable1_FullEvaluation runs the entire Table 1 harness (all 7
// methods × all queries × 4 cut-offs) per iteration.
func BenchmarkTable1_FullEvaluation(b *testing.B) {
	c := sharedCorpus(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eval.RunTable1(c.sys.Engine(), c.queries); err != nil {
			b.Fatal(err)
		}
	}
}

// Fig. 7: range-finder assignment and index pruning.
func BenchmarkFig7_RangeAssignFaithful(b *testing.B) {
	c := sharedCorpus(b)
	hist := c.frame.Rescale(features.AnalysisSize, features.AnalysisSize).GrayHistogram()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rangeindex.AssignFaithful(&hist)
	}
}

func BenchmarkFig7_RangeAssignGeneralised(b *testing.B) {
	c := sharedCorpus(b)
	hist := c.frame.Rescale(features.AnalysisSize, features.AnalysisSize).GrayHistogram()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rangeindex.Assign(&hist, 0, rangeindex.PaperLevels, rangeindex.PaperLevel1Threshold, rangeindex.PaperDeepThreshold)
	}
}

func BenchmarkFig7_CandidateSelection(b *testing.B) {
	c := sharedCorpus(b)
	bucket := core.QueryBucket(c.frame)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.sys.Engine().Store().CandidatesByRange(nil, bucket); err != nil {
			b.Fatal(err)
		}
	}
}

// Fig. 8: one benchmark per feature extractor on a raw frame.
func benchExtract(b *testing.B, kind features.Kind) {
	c := sharedCorpus(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := features.Extract(kind, c.frame); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig8_ColorHistogram(b *testing.B)  { benchExtract(b, features.KindHistogram) }
func BenchmarkFig8_GLCM(b *testing.B)            { benchExtract(b, features.KindGLCM) }
func BenchmarkFig8_Gabor(b *testing.B)           { benchExtract(b, features.KindGabor) }
func BenchmarkFig8_Tamura(b *testing.B)          { benchExtract(b, features.KindTamura) }
func BenchmarkFig8_Autocorrelogram(b *testing.B) { benchExtract(b, features.KindCorrelogram) }
func BenchmarkFig8_Naive(b *testing.B)           { benchExtract(b, features.KindNaive) }
func BenchmarkFig8_RegionGrowing(b *testing.B)   { benchExtract(b, features.KindRegions) }

func BenchmarkFig8_ExtractAll(b *testing.B) {
	c := sharedCorpus(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		features.ExtractAll(c.frame)
	}
}

// Pipeline benchmarks.
func BenchmarkPipeline_IngestVideo(b *testing.B) {
	dir := b.TempDir()
	sys, err := cbvr.Open(filepath.Join(dir, "ingest.db"), cbvr.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer sys.Close()
	v := synthvid.Generate(synthvid.Cartoon, synthvid.Config{Frames: 24, Shots: 4, Seed: 5})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.IngestFrames(context.Background(), fmt.Sprintf("clip_%d", i), v.Frames, 12); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPipeline_IngestSharedPlanes ingests a camera-resolution clip
// so per-key-frame feature extraction — the part the shared analysis-plane
// pass accelerates — dominates the measurement. Compare against
// BenchmarkExtractAllReference × key frames (internal/features) for the
// before/after trajectory.
func BenchmarkPipeline_IngestSharedPlanes(b *testing.B) {
	dir := b.TempDir()
	sys, err := cbvr.Open(filepath.Join(dir, "ingest-shared.db"), cbvr.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer sys.Close()
	v := synthvid.Generate(synthvid.Sports, synthvid.Config{
		Width: 320, Height: 240, Frames: 24, Shots: 4, Seed: 5,
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sys.IngestFrames(context.Background(), fmt.Sprintf("shared_clip_%d", i), v.Frames, 12)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(len(res.KeyFrameIDs)), "keyframes")
		}
	}
}

// BenchmarkPipeline_IngestStreamed measures the streamed ingest path
// (decode/select/extract overlap, pooled planes, JPEG-record reuse) on a
// camera-resolution container. Run with -benchmem and compare against
// BenchmarkPipeline_IngestBufferedReference: the streamed path holds only
// key frames, reuses the selection-time signature and rasters, and never
// re-encodes JPEGs, so both bytes/op and time/op drop.
func BenchmarkPipeline_IngestStreamed(b *testing.B) {
	dir := b.TempDir()
	sys, err := cbvr.Open(filepath.Join(dir, "ingest-streamed.db"), cbvr.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer sys.Close()
	v := synthvid.Generate(synthvid.Sports, synthvid.Config{
		Width: 320, Height: 240, Frames: 24, Shots: 4, Seed: 5,
	})
	container, err := cvj.EncodeBytes(v.Frames, v.FPS, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sys.IngestVideoStream(context.Background(), fmt.Sprintf("streamed_%d", i), bytes.NewReader(container))
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(len(res.KeyFrameIDs)), "keyframes")
		}
	}
}

// BenchmarkPipeline_IngestBufferedReference is the allocation and speed
// baseline: the retained in-memory reference ingest (decode everything,
// batch selection, sequential unpooled extraction) over the identical
// container.
func BenchmarkPipeline_IngestBufferedReference(b *testing.B) {
	dir := b.TempDir()
	sys, err := cbvr.Open(filepath.Join(dir, "ingest-buffered.db"), cbvr.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer sys.Close()
	v := synthvid.Generate(synthvid.Sports, synthvid.Config{
		Width: 320, Height: 240, Frames: 24, Shots: 4, Seed: 5,
	})
	container, err := cvj.EncodeBytes(v.Frames, v.FPS, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Engine().IngestVideoReference(fmt.Sprintf("buffered_%d", i), container); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPipeline_KeyframeExtraction(b *testing.B) {
	v := synthvid.Generate(synthvid.Sports, synthvid.Config{Frames: 48, Shots: 5, Seed: 6})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (keyframe.Extractor{}).Extract(v.Frames); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPipeline_SearchFrameEndToEnd(b *testing.B) {
	c := sharedCorpus(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.sys.Search(context.Background(), c.frame, cbvr.SearchOptions{K: 20}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPipeline_SearchVideoDTW(b *testing.B) {
	c := sharedCorpus(b)
	v := synthvid.Generate(synthvid.Movie, synthvid.Config{Frames: 16, Shots: 2, Seed: 9})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.sys.SearchVideo(context.Background(), v.Frames, cbvr.SearchOptions{K: 5}); err != nil {
			b.Fatal(err)
		}
	}
}

// Sharded search pipeline (DESIGN.md "Sharded search pipeline").
//
// shardedCorpus is a dedicated large fixture: every frame becomes a key
// frame (threshold ~0), yielding a ≥ 1000-key-frame cache so the
// parallel shard scan has enough work per query for the speedup to be
// measurable. It is built once, only when these benchmarks run.
type shardedBenchCorpus struct {
	sys    *cbvr.System
	qsets  []*features.Set
	qbkts  []rangeindex.Range
	frames int
}

var (
	shardedOnce sync.Once
	sharded     *shardedBenchCorpus
	shardedErr  error
)

func shardedCorpus(b *testing.B) *shardedBenchCorpus {
	b.Helper()
	shardedOnce.Do(func() {
		dir, err := os.MkdirTemp("", "cbvr-sharded-*")
		if err != nil {
			shardedErr = err
			return
		}
		sys, err := cbvr.Open(filepath.Join(dir, "sharded.db"), cbvr.Options{
			// Near-zero threshold keeps every frame: 25 clips x 40 frames
			// = 1000 key frames. The explicit shard count keeps the
			// 1/4-worker variants meaningful even on hosts with a small
			// GOMAXPROCS (shards bound per-query parallelism).
			KeyframeThreshold: 0.001,
			SearchShards:      8,
		})
		if err != nil {
			shardedErr = err
			return
		}
		cats := []synthvid.Category{
			synthvid.Elearning, synthvid.Sports, synthvid.Cartoon,
			synthvid.Movie, synthvid.News,
		}
		for i := 0; i < 25; i++ {
			v := synthvid.Generate(cats[i%len(cats)], synthvid.Config{
				Width: 96, Height: 72, Frames: 40, Shots: 6, Seed: int64(1000 + i),
			})
			if _, err := sys.IngestFrames(context.Background(), fmt.Sprintf("%s_%02d", v.Name, i), v.Frames, v.FPS); err != nil {
				shardedErr = err
				return
			}
		}
		n, err := sys.Engine().CacheSize()
		if err != nil {
			shardedErr = err
			return
		}
		c := &shardedBenchCorpus{sys: sys, frames: n}
		var qframes []*imaging.Image
		for i := 0; i < 4; i++ {
			q := synthvid.Generate(cats[i], synthvid.Config{
				Width: 96, Height: 72, Frames: 2, Shots: 1, Seed: int64(2000 + i),
			})
			qframes = append(qframes, q.Frames[0])
		}
		c.qsets = sys.Engine().ExtractQuerySets(qframes)
		for _, f := range qframes {
			c.qbkts = append(c.qbkts, core.QueryBucket(f))
		}
		sharded = c
	})
	if shardedErr != nil {
		b.Fatal(shardedErr)
	}
	if sharded.frames < 1000 {
		b.Fatalf("sharded corpus has %d key frames, want >= 1000", sharded.frames)
	}
	return sharded
}

// benchSearchSharded times one combined-feature top-K retrieval per
// iteration through the sharded pipeline at a given worker count
// (0 = engine default, i.e. GOMAXPROCS).
func benchSearchSharded(b *testing.B, workers int) {
	c := shardedCorpus(b)
	opt := core.SearchOptions{K: 10, NoPruning: true, Workers: workers}
	b.ReportMetric(float64(c.frames), "keyframes")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := i % len(c.qsets)
		if _, _, err := c.sys.Engine().SearchWithSetStats(c.qsets[q], c.qbkts[q], opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSearchSharded_Reference is the speedup baseline: the retained
// naive single-goroutine full-sort scan over the same 1k-key-frame cache.
func BenchmarkSearchSharded_Reference(b *testing.B) {
	c := shardedCorpus(b)
	opt := core.SearchOptions{K: 10, NoPruning: true}
	b.ReportMetric(float64(c.frames), "keyframes")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := i % len(c.qsets)
		if _, err := c.sys.Engine().SearchWithSetReference(c.qsets[q], c.qbkts[q], opt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSearchSharded_Workers1(b *testing.B)   { benchSearchSharded(b, 1) }
func BenchmarkSearchSharded_Workers4(b *testing.B)   { benchSearchSharded(b, 4) }
func BenchmarkSearchSharded_WorkersMax(b *testing.B) { benchSearchSharded(b, 0) }

// BenchmarkScanArena isolates the scan phase of the columnar pipeline:
// the batched kernel sweep of all seven descriptor columns over every
// live arena row of the 1k-key-frame corpus, into a preallocated buffer.
// Run with -benchmem: the sweep itself performs zero allocations — the
// per-query work is exactly len(kinds) kernel calls per shard over
// contiguous memory.
func BenchmarkScanArena(b *testing.B) {
	c := shardedCorpus(b)
	eng := c.sys.Engine()
	pq := eng.PackQuery(c.qsets[0], nil)
	n, err := eng.CacheSize()
	if err != nil {
		b.Fatal(err)
	}
	dist := make([]float64, int(features.NumKinds)*n)
	b.ReportMetric(float64(n), "keyframes")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.ScanArenaInto(pq, dist); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScanArena_DispatchReference is the pre-arena scan shape over
// the same candidates: per-entry interface-dispatched DistanceTo calls
// chasing heap descriptor vectors. The gap between this and
// BenchmarkScanArena is the memory-layout win in isolation.
func BenchmarkScanArena_DispatchReference(b *testing.B) {
	c := shardedCorpus(b)
	eng := c.sys.Engine()
	n, err := eng.CacheSize()
	if err != nil {
		b.Fatal(err)
	}
	dist := make([]float64, int(features.NumKinds)*n)
	b.ReportMetric(float64(n), "keyframes")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.ScanDispatchReference(c.qsets[0], nil, dist); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSearchSharded_MinMaxWorkersMax exercises the streamed min-max
// fusion path (two-pass, no per-feature distance lists) at full
// parallelism.
func BenchmarkSearchSharded_MinMaxWorkersMax(b *testing.B) {
	c := shardedCorpus(b)
	opt := core.SearchOptions{K: 10, NoPruning: true, Fusion: core.FusionMinMax}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := i % len(c.qsets)
		if _, _, err := c.sys.Engine().SearchWithSetStats(c.qsets[q], c.qbkts[q], opt); err != nil {
			b.Fatal(err)
		}
	}
}

// Ablations (DESIGN.md).
func BenchmarkAblation_RangePruningOn(b *testing.B) {
	c := sharedCorpus(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := i % len(c.qsets)
		if _, _, err := c.sys.Engine().SearchWithSetStats(c.qsets[q], core.QueryBucket(c.queries[q].Frame),
			core.SearchOptions{K: 20}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblation_RangePruningOff(b *testing.B) {
	c := sharedCorpus(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := i % len(c.qsets)
		if _, _, err := c.sys.Engine().SearchWithSetStats(c.qsets[q], core.QueryBucket(c.queries[q].Frame),
			core.SearchOptions{K: 20, NoPruning: true}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblation_FusionRRF(b *testing.B) {
	benchSearch(b, core.SearchOptions{Fusion: core.FusionRRF})
}

func BenchmarkAblation_FusionMinMax(b *testing.B) {
	benchSearch(b, core.SearchOptions{Fusion: core.FusionMinMax})
}

func BenchmarkAblation_KeyframeThreshold(b *testing.B) {
	v := synthvid.Generate(synthvid.Nature, synthvid.Config{Frames: 48, Shots: 5, Seed: 7})
	for _, thr := range []float64{400, 800, 1600} {
		b.Run(fmt.Sprintf("thr=%.0f", thr), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := (keyframe.Extractor{Threshold: thr}).Extract(v.Frames); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkAblation_DPAlignment(b *testing.B) {
	c := sharedCorpus(b)
	v := synthvid.Generate(synthvid.News, synthvid.Config{Frames: 12, Shots: 2, Seed: 8})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.sys.Engine().SearchVideo(context.Background(), v.Frames, core.SearchOptions{K: 3}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblation_BestSingleFrame(b *testing.B) {
	c := sharedCorpus(b)
	qsets := c.qsets[:4]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.sys.Engine().BestSingleFrameVideoSearch(qsets, core.SearchOptions{K: 3}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblation_GaborFaithful(b *testing.B) {
	c := sharedCorpus(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		features.ExtractGabor(c.frame)
	}
}

func BenchmarkAblation_GaborCorrected(b *testing.B) {
	c := sharedCorpus(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		features.ExtractGaborCorrected(c.frame)
	}
}

func BenchmarkAblation_HuangVsOtsuThreshold(b *testing.B) {
	c := sharedCorpus(b)
	hist := c.frame.ToGray().Histogram()
	b.Run("huang", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			imaging.HuangThreshold(hist)
		}
	})
	b.Run("otsu", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			imaging.OtsuThreshold(hist)
		}
	})
}
