package main

import (
	"fmt"
	"sync"
	"time"

	"cbvr/internal/core"
)

// query_http: held-out JPEG frames sent to POST /api/v1/search?k=10 of
// the cbvr-server handler over a small pixel corpus ingested through
// POST /api/v1/ingest.
const (
	qhClips      = 24   // corpus clips; about 115 key frames in all
	qhClipFrames = 24   // frames per corpus clip
	qhClipShots  = 6    // shots per corpus clip
	qhQueries    = 24   // distinct held-out query frames
	qhCheck      = 8    // queries whose HTTP results are checked against the reference
	qhOpenRate   = 16.0 // open-loop searches/s: about half the closed-loop capacity on a 2-core Xeon

	qhSlice = 5 * time.Second // length of one closed-loop or open-loop slice
)

func runQueryHTTP(e *env) error {
	corpus, err := genClips(e.seed, streamCorpus, qhClips, qhClipFrames, qhClipShots)
	if err != nil {
		return err
	}
	queries, err := genQueryFrames(e.seed, qhQueries)
	if err != nil {
		return err
	}
	fix, setupIngests, kf, err := setupHTTP(e, "query_http", corpus)
	if err != nil {
		return err
	}
	defer func() {
		if fix != nil {
			fix.stop()
		}
	}()
	// The set-up uploads are this workload's ingest figures.
	e.res.e2e["ingest_kf_per_s"] = float64(kf) / e.res.e2e["setup_s"]
	ingestLatency(e, "set-up uploads, 1 client", setupIngests)

	// Searches from procs closed-loop clients measure capacity, from an
	// open loop at a fixed rate latency. The first answer to each of the
	// first qhCheck queries is kept for the reference check.
	var mu sync.Mutex
	got := make(map[int][]matchJSON)
	search := func(seq int) error {
		qi := seq % len(queries)
		ms, err := fix.search(queries[qi], e.reqID(seq, len(queries), 0))
		if err == nil && qi < qhCheck {
			mu.Lock()
			if _, ok := got[qi]; !ok {
				got[qi] = ms
			}
			mu.Unlock()
		}
		return err
	}
	// The window alternates qhSlice-long closed-loop (capacity) and
	// open-loop (latency) slices, so both sample the whole run.
	win := openWindow(e, fix.eng)
	adm := sampleAdmission(fix)
	slices := max(1, int(e.window/(2*qhSlice)))
	slice := e.window / time.Duration(2*slices)
	var closed []sample
	var open openResult
	var closedWall time.Duration
	for i := 0; i < slices; i++ {
		t0 := time.Now()
		closed = append(closed, closedLoop(realClock{}, e.procs, slice, search)...)
		closedWall += time.Since(t0)
		o := openLoop(realClock{}, qhOpenRate, slice, e.procs, search)
		open.samples = append(open.samples, o.samples...)
		open.late = append(open.late, o.late...)
	}
	e.res.count(closed)
	e.res.count(open.samples)
	e.res.e2e["search_qps"] = float64(len(closed)-countFailed(closed)) / closedWall.Seconds()
	e.res.note("%-34s %.2f searches/s over %.2f s, %d clients (closed loop)", "capacity", e.res.e2e["search_qps"], closedWall.Seconds(), e.procs)
	adm.finish(e, len(closed)+len(open.samples))
	win.finish(e, fix.eng, len(closed)+len(open.samples))
	searchLatency(e, fmt.Sprintf("open loop at %.0f/s", qhOpenRate), open.samples)
	lateness(e, open)
	servedShare(e)

	// Correctness: the sampled HTTP answers must be bit-identical to the
	// reference search on the same decoded frame (no shard reaches
	// MinShardRows at this size, so the exact path is the contract).
	decoded := make([]decodedQuery, len(queries))
	for i, jpeg := range queries {
		if decoded[i], err = decodeQuery(jpeg); err != nil {
			return err
		}
	}
	for qi := 0; qi < qhCheck; qi++ {
		ms, ok := got[qi]
		if !ok {
			e.res.check(false, "query %d never answered over HTTP", qi)
			continue
		}
		ref, err := fix.eng.SearchWithSetReference(decoded[qi].set, decoded[qi].bucket, core.SearchOptions{K: searchK})
		if err != nil {
			return err
		}
		e.res.check(sameMatches(ms, ref), "query %d: HTTP results differ from SearchWithSetReference", qi)
	}
	recall, err := recallAt10(fix.eng, decoded)
	if err != nil {
		return err
	}
	e.res.e2e["recall_at_10"] = recall

	if e.traced() {
		handlerMetrics(e, "search")
		overhead(e, open.samples, len(queries))
		if err := searchReplay(e, fix.eng, queries, 2); err != nil {
			return err
		}
	}

	path := fix.path
	err = fix.stop()
	fix = nil
	if err != nil {
		return err
	}
	eng, err := reopen(e, path, decoded[0], smallReopens)
	if err != nil {
		return err
	}
	defer eng.Close()
	// The store grew from empty by the set-up uploads alone.
	if err := storeGrowth(e, path, 0, kf); err != nil {
		return err
	}
	if err := scanAndParse(e, eng); err != nil {
		return err
	}
	if e.traced() {
		spanMetrics(e)
	}
	return nil
}

// sameMatches reports whether HTTP results equal engine matches field by
// field, distances bit for bit.
func sameMatches(got []matchJSON, want []core.Match) bool {
	if len(got) != len(want) {
		return false
	}
	for i, m := range want {
		g := got[i]
		if g.KeyFrameID != m.KeyFrameID || g.VideoID != m.VideoID || g.VideoName != m.VideoName ||
			g.FrameIndex != m.FrameIndex || g.Distance != m.Distance {
			return false
		}
	}
	return true
}
