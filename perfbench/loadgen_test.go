package main

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// A refusal returned by an operation is recorded as a failed sample.
func TestLoopsRecordRefusals(t *testing.T) {
	clk := &fakeClock{}
	refused := errors.New("429 Too Many Requests")
	op := func(seq int) error {
		clk.advance(time.Millisecond)
		if seq%4 == 0 {
			return refused
		}
		return nil
	}
	res := openLoop(clk, 100, 200*time.Millisecond, 1, op)
	if len(res.samples) != 20 || countFailed(res.samples) != 5 {
		t.Errorf("open loop: %d samples, %d failed; want 20, 5", len(res.samples), countFailed(res.samples))
	}
	closed := closedLoop(clk, 1, 8*time.Millisecond, op)
	if len(closed) != 8 || countFailed(closed) != 2 {
		t.Errorf("closed loop: %d samples, %d failed; want 8, 2", len(closed), countFailed(closed))
	}
}

// fakeClock is a deterministic clock: time moves only when an operation
// advances it or a sleeper waits for a later instant.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) SleepUntil(t time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t.After(c.now) {
		c.now = t
	}
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// A stall charges the requests queued behind it: latency runs from each
// request's due time, not from when the generator got to it.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	clk := &fakeClock{}
	// 100 requests/s for 100 ms on one worker: due every 10 ms. Request 0
	// stalls for 55 ms; the rest take 1 ms.
	res := openLoop(clk, 100, 100*time.Millisecond, 1, func(seq int) error {
		if seq == 0 {
			clk.advance(55 * time.Millisecond)
		} else {
			clk.advance(time.Millisecond)
		}
		return nil
	})
	if len(res.samples) != 10 {
		t.Fatalf("%d samples, want 10", len(res.samples))
	}
	want := []time.Duration{
		55 * time.Millisecond, // 0: due 0, ends 55
		46 * time.Millisecond, // 1: due 10, starts 55, ends 56
		37 * time.Millisecond, // 2: due 20, ends 57
		28 * time.Millisecond, // 3: due 30, ends 58
		19 * time.Millisecond, // 4: due 40, ends 59
		10 * time.Millisecond, // 5: due 50, ends 60
		time.Millisecond,      // 6: due 60, on time again
	}
	for i, w := range want {
		if s := res.samples[i]; s.seq != i || s.d != w {
			t.Errorf("request %d: latency %v (seq %d), want %v", i, s.d, s.seq, w)
		}
	}
	if res.late[1] != 45*time.Millisecond || res.late[6] != 0 {
		t.Errorf("lateness %v, %v; want 45ms, 0", res.late[1], res.late[6])
	}
	// A closed loop times each request from its own start, so the same
	// stall is charged to request 0 alone.
	cclk := &fakeClock{}
	closed := closedLoop(cclk, 1, 100*time.Millisecond, func(seq int) error {
		if seq == 0 {
			cclk.advance(55 * time.Millisecond)
		} else {
			cclk.advance(time.Millisecond)
		}
		return nil
	})
	if closed[0].d != 55*time.Millisecond || closed[1].d != time.Millisecond {
		t.Errorf("closed loop latencies %v, %v; want 55ms, 1ms", closed[0].d, closed[1].d)
	}
}
