package main

import (
	"fmt"
	"sync"
	"time"

	"cbvr/internal/core"
	"cbvr/internal/vstore"
)

// ingest_mixed: one closed-loop loader uploads short CVJ clips through
// POST /api/v1/ingest and deletes its oldest clip through DELETE
// /api/v1/videos beyond a fixed window, while an open loop of HTTP
// searches runs at a low fixed rate against the same server.
const (
	imBaseClips   = 16  // clips loaded at set-up and never deleted
	imLoaderClips = 32  // distinct clips the loader cycles through
	imClipFrames  = 24  // frames per clip
	imClipShots   = 4   // shots per clip; about 3 key frames each
	imWindow      = 6   // loader clips held before the oldest is deleted
	imSearchRate  = 8.0 // open-loop searches/s
	imSearchers   = 1   // open-loop workers; with the loader, no more clients than nproc
	imQueries     = 16  // distinct held-out query frames
	imReplayClips = 8   // loader clips replayed stage by stage in traced runs
)

// loader is the ingest side's state: what it holds and what it deleted.
type loader struct {
	e       *env
	f       *httpFixture
	clips   []clip
	mu      sync.Mutex
	held    []ingestJSON // oldest first
	deleted []ingestJSON
	ingests []sample
	kf      int
	ops     []sample // ingests and deletes, for attempted/failed
}

// req traces every loader request in a traced run.
func (l *loader) req(seq int) int64 {
	if !l.e.traced() {
		return 0
	}
	return int64(seq + 1)
}

// step uploads the next clip and, beyond the window, deletes the oldest.
func (l *loader) step(seq int) error {
	c := l.clips[seq%len(l.clips)]
	t0 := time.Now()
	res, err := l.f.ingest(c, fmt.Sprintf("load-%d", seq), l.req(seq))
	s := sample{d: time.Since(t0), failed: err != nil}
	l.mu.Lock()
	l.ingests = append(l.ingests, s)
	l.ops = append(l.ops, s)
	if err == nil {
		l.held = append(l.held, res)
		l.kf += len(res.KeyFrameIDs)
	}
	var victim *ingestJSON
	if len(l.held) > imWindow {
		v := l.held[0]
		l.held = l.held[1:]
		victim = &v
	}
	l.mu.Unlock()
	if err != nil {
		return err
	}
	if victim == nil {
		return nil
	}
	t1 := time.Now()
	derr := l.f.deleteVideo(victim.VideoID, l.req(seq))
	l.mu.Lock()
	l.ops = append(l.ops, sample{d: time.Since(t1), failed: derr != nil})
	if derr == nil {
		l.deleted = append(l.deleted, *victim)
	} else {
		l.held = append([]ingestJSON{*victim}, l.held...)
	}
	l.mu.Unlock()
	return derr
}

// mixedPhase runs the loader and the open-loop searches side by side
// for window and returns the search phase.
func mixedPhase(l *loader, queries [][]byte, window time.Duration) openResult {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		closedLoop(realClock{}, 1, window, l.step)
	}()
	searches := openLoop(realClock{}, imSearchRate, window, imSearchers, func(seq int) error {
		_, err := l.f.search(queries[seq%len(queries)], l.e.reqID(seq, len(queries), searchReq0))
		return err
	})
	wg.Wait()
	return searches
}

// searchReq0 offsets search request ids from the loader's.
const searchReq0 = 1 << 20

func runIngestMixed(e *env) error {
	base, err := genClips(e.seed, streamCorpus, imBaseClips, imClipFrames, imClipShots)
	if err != nil {
		return err
	}
	loadClips, err := genClips(e.seed, streamLoader, imLoaderClips, imClipFrames, imClipShots)
	if err != nil {
		return err
	}
	queries, err := genQueryFrames(e.seed, imQueries)
	if err != nil {
		return err
	}
	fix, _, baseKF, err := setupHTTP(e, "ingest_mixed", base)
	if err != nil {
		return err
	}
	// Restart on the closed, checkpointed store so its size is a
	// baseline for the growth the loader causes.
	path := fix.path
	if err := fix.stop(); err != nil {
		return err
	}
	size0, err := storeBytes(path)
	if err != nil {
		return err
	}
	if fix, err = startHTTP(path, e.tr, e.fs); err != nil {
		return err
	}
	defer func() {
		if fix != nil {
			fix.stop()
		}
	}()
	l := &loader{e: e, f: fix, clips: loadClips}

	win := openWindow(e, fix.eng)
	adm := sampleAdmission(fix)
	t0 := time.Now()
	searches := mixedPhase(l, queries, e.window)
	wall := time.Since(t0)
	e.res.count(searches.samples)
	e.res.count(l.ops)
	adm.finish(e, len(searches.samples)+len(l.ops))
	win.finish(e, fix.eng, len(searches.samples)+len(l.ops))
	win.storage(e, fix.eng, l.kf, len(l.ingests))
	e.res.e2e["ingest_kf_per_s"] = float64(l.kf) / wall.Seconds()
	e.res.e2e["search_qps"] = float64(len(searches.samples)-countFailed(searches.samples)) / wall.Seconds()
	e.res.note("%-34s %d uploads (%d key frames), %d deletes, %.2f key frames/s over %.2f s", "loader", len(l.ingests), l.kf, len(l.deleted), e.res.e2e["ingest_kf_per_s"], wall.Seconds())
	ingestLatency(e, "closed-loop loader, 1 client", l.ingests)
	searchLatency(e, fmt.Sprintf("open loop at %.0f/s beside the loader", imSearchRate), searches.samples)
	lateness(e, searches)
	servedShare(e)

	if e.traced() {
		handlerMetrics(e, "search")
		handlerMetrics(e, "ingest")
		overhead(e, searches.samples, len(queries))
	}

	// Correctness after the run, on the store as the server left it and
	// again after a reopen.
	decoded, err := decodeQuery(queries[0])
	if err != nil {
		return err
	}
	before, err := storeCounts(fix.eng)
	if err != nil {
		return err
	}
	err = fix.stop()
	fix = nil
	if err != nil {
		return err
	}
	if err := storeGrowth(e, path, size0, l.kf); err != nil {
		return err
	}
	eng, err := reopen(e, path, decoded, smallReopens)
	if err != nil {
		return err
	}
	defer eng.Close()
	after, err := storeCounts(eng)
	if err != nil {
		return err
	}
	e.res.check(before == after, "reopen changed the store: %+v before, %+v after", before, after)
	e.res.check(after.videos == imBaseClips+len(l.held), "store holds %d videos, want %d base + %d held", after.videos, imBaseClips, len(l.held))
	e.res.check(after.keyFrames == baseKF+heldKF(l.held), "store holds %d key frames, want %d", after.keyFrames, baseKF+heldKF(l.held))
	if err := checkHeldAndDeleted(e, eng, l); err != nil {
		return err
	}
	rep, err := vstore.Check(eng.Store().DB())
	if err != nil {
		return err
	}
	e.res.check(rep.Clean(), "vstore.Check: %v", rep.Problems)
	qs := make([]decodedQuery, 0, len(queries))
	for _, jpeg := range queries {
		q, err := decodeQuery(jpeg)
		if err != nil {
			return err
		}
		qs = append(qs, q)
	}
	recall, err := recallAt10(eng, qs)
	if err != nil {
		return err
	}
	e.res.e2e["recall_at_10"] = recall
	if err := scanAndParse(e, eng); err != nil {
		return err
	}

	if e.traced() {
		if err := ingestResidual(e, eng, loadClips[:imReplayClips]); err != nil {
			return err
		}
		if err := searchReplay(e, eng, queries, 2); err != nil {
			return err
		}
		spanMetrics(e)
	}
	return nil
}

type counts struct{ videos, keyFrames int }

func storeCounts(eng *core.Engine) (counts, error) {
	v, err := eng.Store().CountVideos(nil)
	if err != nil {
		return counts{}, err
	}
	k, err := eng.Store().CountKeyFrames(nil)
	return counts{v, k}, err
}

func heldKF(held []ingestJSON) int {
	n := 0
	for _, h := range held {
		n += len(h.KeyFrameIDs)
	}
	return n
}

// checkHeldAndDeleted verifies that every key frame the loader still
// holds is stored under its video, and that every deleted video and its
// key frames are gone.
func checkHeldAndDeleted(e *env, eng *core.Engine, l *loader) error {
	st := eng.Store()
	for _, h := range l.held {
		for _, id := range h.KeyFrameIDs {
			k, ok, err := st.GetKeyFrame(nil, id)
			if err != nil {
				return err
			}
			e.res.check(ok && k.VideoID == h.VideoID, "key frame %d of held video %d missing", id, h.VideoID)
		}
	}
	for _, d := range l.deleted {
		_, ok, err := st.GetVideoInfo(nil, d.VideoID)
		if err != nil {
			return err
		}
		e.res.check(!ok, "deleted video %d still listed", d.VideoID)
		for _, id := range d.KeyFrameIDs {
			_, ok, err := st.GetKeyFrame(nil, id)
			if err != nil {
				return err
			}
			e.res.check(!ok, "key frame %d of deleted video %d still stored", id, d.VideoID)
		}
	}
	return nil
}

// ingestResidual prices spool + commit + publish: each replay clip is
// uploaded once more on a quiet server (its handler span timed), then
// replayed through decode, selection and extraction outside the engine.
// The residual is the difference of the two medians.
func ingestResidual(e *env, eng *core.Engine, clips []clip) error {
	f, err := serveHTTP(eng, e.tr)
	if err != nil {
		return err
	}
	const req0 = 3_000_000
	for i, c := range clips {
		if _, err := f.ingest(c, fmt.Sprintf("replay-%d", i), int64(req0+i)); err != nil {
			f.close()
			return err
		}
	}
	if err := f.close(); err != nil {
		return err
	}
	var handler []time.Duration
	for _, s := range e.tr.snapshot() {
		if s.Name == "server.ingest" && s.Req >= req0 {
			handler = append(handler, s.dur())
		}
	}
	walls, err := ingestReplay(e, clips)
	if err != nil {
		return err
	}
	h := summarize(durations(handler, time.Millisecond))
	w := summarize(durations(walls, time.Millisecond))
	e.res.layer["core.ingest_residual_ms"] = h.median - w.median
	e.res.note("%-34s quiet handler %s; replayed decode+select+extract %s", "ingest residual (ms)", h, w)
	return nil
}
