package core

import (
	"bytes"
	"context"

	"testing"

	"cbvr/internal/cvj"
	"cbvr/internal/imaging"
	"cbvr/internal/synthvid"

	"cbvr/internal/features"
)

// TestBucketFromPlanesMatchesQueryBucket pins the shared-plane range
// bucket to the naive rescale-then-histogram QueryBucket.
func TestBucketFromPlanesMatchesQueryBucket(t *testing.T) {
	v := genVideo(synthvid.Sports, 11)
	for i, f := range v.Frames {
		if got, want := BucketFromPlanes(features.NewPlanes(f)), QueryBucket(f); got != want {
			t.Fatalf("frame %d: planes bucket %+v, QueryBucket %+v", i, got, want)
		}
	}
}

// TestIngestRescalesEachSourceFrameOnce verifies the end-to-end streamed
// ingest guarantee with the imaging rescale counter: exactly one analysis
// rescale per source frame, performed when the frame enters §4.1
// selection, and zero additional rescales per key frame — extraction
// reuses the selection-time analysis raster and naive signature. (The
// shared-plane pipeline of PR 2 paid frames + key frames; streaming
// extends the one-rescale invariant to the whole ingest path.)
func TestIngestRescalesEachSourceFrameOnce(t *testing.T) {
	eng := openTestEngine(t)
	v := genVideo(synthvid.Movie, 12)
	start := imaging.RescaleCalls()
	res, err := eng.IngestFrames(context.Background(), "movie_00", v.Frames, v.FPS)
	if err != nil {
		t.Fatal(err)
	}
	got := imaging.RescaleCalls() - start
	want := int64(res.NumFrames)
	if got != want {
		t.Errorf("ingest performed %d rescales for %d frames / %d key frames, want %d (one per source frame)",
			got, res.NumFrames, len(res.KeyFrameIDs), want)
	}
	if len(res.KeyFrameIDs) < 2 {
		t.Fatalf("degenerate fixture: %d key frames", len(res.KeyFrameIDs))
	}
}

// TestIngestStreamRescalesEachSourceFrameOnce pins the same invariant on
// the reader-based entry point.
func TestIngestStreamRescalesEachSourceFrameOnce(t *testing.T) {
	eng := openTestEngine(t)
	v := genVideo(synthvid.Cartoon, 15)
	container, err := cvj.EncodeBytes(v.Frames, v.FPS, 0)
	if err != nil {
		t.Fatal(err)
	}
	start := imaging.RescaleCalls()
	res, err := eng.IngestVideoStream(context.Background(), "cartoon_00", bytes.NewReader(container))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := imaging.RescaleCalls()-start, int64(res.NumFrames); got != want {
		t.Errorf("streamed ingest performed %d rescales for %d frames, want %d", got, res.NumFrames, want)
	}
}

// TestSearchFrameSingleRescale checks the query path: one rescale covers
// both the query descriptors and the query bucket.
func TestSearchFrameSingleRescale(t *testing.T) {
	eng := openTestEngine(t)
	ingest(t, eng, "news_00", synthvid.News, 13)
	q := genVideo(synthvid.News, 14).Frames[0]
	if _, err := eng.SearchFrame(context.Background(), q, SearchOptions{K: 3}); err != nil {
		t.Fatal(err)
	}
	start := imaging.RescaleCalls()
	if _, err := eng.SearchFrame(context.Background(), q, SearchOptions{K: 3}); err != nil {
		t.Fatal(err)
	}
	if n := imaging.RescaleCalls() - start; n != 1 {
		t.Errorf("warm SearchFrame performed %d rescales, want exactly 1", n)
	}
}
