package core

import (
	"bytes"
	"context"
	"errors"
	"io"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"cbvr/internal/synthvid"
)

// manualDeadlineCtx is a context whose deadline fires exactly when the
// test says so — the deterministic stand-in for "the clock ran out while
// the work was mid-flight". Err reports context.DeadlineExceeded after
// expire, matching what context.WithDeadline produces.
type manualDeadlineCtx struct {
	context.Context
	done chan struct{}
	mu   sync.Mutex
	dead bool
}

func newManualDeadlineCtx() *manualDeadlineCtx {
	return &manualDeadlineCtx{Context: context.Background(), done: make(chan struct{})}
}

func (c *manualDeadlineCtx) Done() <-chan struct{} { return c.done }

func (c *manualDeadlineCtx) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.dead {
		return context.DeadlineExceeded
	}
	return c.Context.Err()
}

func (c *manualDeadlineCtx) expire() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.dead {
		c.dead = true
		close(c.done)
	}
}

// countdownCtx expires after a fixed number of Err polls: the way to land
// a deadline exactly in the middle of the shard scan, whose only
// cancellation points are its per-shard Err checks.
type countdownCtx struct {
	context.Context
	mu        sync.Mutex
	remaining int
}

func (c *countdownCtx) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.remaining <= 0 {
		return context.DeadlineExceeded
	}
	c.remaining--
	return nil
}

// TestSearchDeadlineMidScan lands a deadline expiry in the middle of the
// sharded scan (after the first shard's cancellation check passes) and
// verifies the search surfaces context.DeadlineExceeded — the error the
// HTTP layer maps to 503 — and never a partial ranking.
func TestSearchDeadlineMidScan(t *testing.T) {
	eng := openTestEngine(t)
	ingest(t, eng, "clip", synthvid.Cartoon, 81)
	q := genVideo(synthvid.Cartoon, 81).Frames[0]

	// One Err poll survives (warm-up / first shard); the next sees the
	// deadline. Workers=1 serialises the shard loop so "mid-scan" is
	// deterministic, not a race between workers.
	ctx := &countdownCtx{Context: context.Background(), remaining: 1}
	_, err := eng.SearchFrame(ctx, q, SearchOptions{Workers: 1})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("mid-scan deadline returned %v, want context.DeadlineExceeded", err)
	}

	// An already-expired real deadline behaves identically.
	expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, err := eng.SearchFrame(expired, q, SearchOptions{}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired-deadline search returned %v, want context.DeadlineExceeded", err)
	}

	// The engine still serves once the pressure is an old story.
	if _, err := eng.SearchFrame(context.Background(), q, SearchOptions{}); err != nil {
		t.Fatalf("live search after deadline expiries: %v", err)
	}
}

// deadlineAfterReader expires a manualDeadlineCtx once n bytes have been
// read, then counts what is read afterwards.
type deadlineAfterReader struct {
	r           io.Reader
	n           int
	ctx         *manualDeadlineCtx
	fired       bool
	afterExpiry int
}

func (d *deadlineAfterReader) Read(p []byte) (int, error) {
	n, err := d.r.Read(p)
	if d.fired {
		d.afterExpiry += n
	} else {
		d.n -= n
		if d.n <= 0 {
			d.fired = true
			d.ctx.expire()
		}
	}
	return n, err
}

// TestIngestDeadlineMidDecode expires the request deadline part-way
// through the container decode: the ingest must stop within a decode
// iteration, surface context.DeadlineExceeded, and leave zero orphan rows
// on reopen — the mirror of TestIngestCtxCancelMidDecode for the deadline
// (rather than disconnect) flavour of abandonment.
func TestIngestDeadlineMidDecode(t *testing.T) {
	path := filepath.Join(t.TempDir(), "deadline.db")
	eng, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := testContainer(t, synthvid.Sports, 13, 24)

	ctx := newManualDeadlineCtx()
	dr := &deadlineAfterReader{r: bytes.NewReader(raw), n: len(raw) / 3, ctx: ctx}
	if _, err := eng.IngestVideoStream(ctx, "doomed", dr); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadline-expired ingest returned %v, want context.DeadlineExceeded", err)
	}
	if dr.afterExpiry > len(raw)/3 {
		t.Fatalf("read %d bytes after deadline expiry (container %d): abort was not within a decode iteration", dr.afterExpiry, len(raw))
	}

	vids, err := eng.Store().ListVideos(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(vids) != 0 {
		t.Fatalf("deadline-expired ingest left %d videos", len(vids))
	}
	if err := eng.Close(); err != nil {
		t.Fatalf("close after deadline-expired ingest: %v", err)
	}

	eng2, err := Open(path, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer eng2.Close()
	vids, err = eng2.Store().ListVideos(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(vids) != 0 {
		t.Fatalf("reopened store has %d orphan videos", len(vids))
	}
	if n, err := eng2.CacheSize(); err != nil || n != 0 {
		t.Fatalf("reopened cache: n=%d err=%v", n, err)
	}
	if _, err := eng2.IngestVideoStream(context.Background(), "retry", bytes.NewReader(raw)); err != nil {
		t.Fatalf("re-ingest after deadline expiry: %v", err)
	}
}
