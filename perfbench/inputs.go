package main

import (
	"bytes"
	"fmt"

	"cbvr/internal/core"
	"cbvr/internal/cvj"
	"cbvr/internal/features"
	"cbvr/internal/imaging"
	"cbvr/internal/rangeindex"
	"cbvr/internal/synthvid"
)

// Inputs are generated from the run's seed and handed to the program as
// bytes (CVJ containers, JPEG frames) or descriptor sets; the program
// sees nothing else of the generator.

// clip is one generated video container.
type clip struct {
	name string
	cvj  []byte
}

// genClips renders n synthetic clips of the given length, cycling through
// the six synthvid categories, and encodes each as a CVJ container.
// stream separates independent families of clips drawn from one seed.
func genClips(seed int64, stream, n, frames, shots int) ([]clip, error) {
	cats := synthvid.AllCategories()
	out := make([]clip, n)
	for i := range out {
		v := synthvid.Generate(cats[i%len(cats)], synthvid.Config{
			Frames: frames,
			Shots:  shots,
			Seed:   clipSeed(seed, stream, i),
		})
		b, err := cvj.EncodeBytes(v.Frames, v.FPS, 0)
		if err != nil {
			return nil, fmt.Errorf("encode clip %d: %w", i, err)
		}
		out[i] = clip{name: fmt.Sprintf("s%d-%d-%s", stream, i, v.Name), cvj: b}
	}
	return out, nil
}

// genQueryFrames renders n held-out clips (a clip stream no corpus uses)
// and takes one frame from each as a JPEG query.
func genQueryFrames(seed int64, n int) ([][]byte, error) {
	cats := synthvid.AllCategories()
	out := make([][]byte, n)
	for i := range out {
		v := synthvid.Generate(cats[i%len(cats)], synthvid.Config{
			Frames: 24,
			Shots:  2,
			Seed:   clipSeed(seed, streamQueries, i),
		})
		var buf bytes.Buffer
		if err := v.Frames[(7*i+5)%len(v.Frames)].EncodeJPEG(&buf, 0); err != nil {
			return nil, fmt.Errorf("encode query %d: %w", i, err)
		}
		out[i] = buf.Bytes()
	}
	return out, nil
}

// Clip streams: each family of generated clips draws from its own seeds.
const (
	streamCorpus  = 1
	streamLoader  = 2
	streamQueries = 3
)

func clipSeed(seed int64, stream, i int) int64 {
	return seed*1_000_003 + int64(stream)*10_007 + int64(i) + 1
}

// decodedQuery is a query frame run through the same layer calls the
// search handler makes, kept for reference checks.
type decodedQuery struct {
	set    *features.Set
	bucket rangeindex.Range
}

// decodeQuery decodes and featurizes a JPEG query the way the search
// handler does (imaging.DecodeJPEG, one planes pass, all seven kinds).
func decodeQuery(jpeg []byte) (decodedQuery, error) {
	im, err := imaging.DecodeJPEG(bytes.NewReader(jpeg))
	if err != nil {
		return decodedQuery{}, err
	}
	p := features.NewPlanes(im)
	return decodedQuery{set: p.ExtractAll(), bucket: core.BucketFromPlanes(p)}, nil
}
