package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// clock is the load generator's time source; tests substitute a fake one
// so schedules and stalls are exact.
type clock interface {
	Now() time.Time
	SleepUntil(t time.Time)
}

type realClock struct{}

func (realClock) Now() time.Time { return time.Now() }

func (realClock) SleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

// closedLoop runs clients goroutines, each issuing its next operation as
// soon as the previous one returns, until window has elapsed. op receives
// a run-wide sequence number (to pick an input) and reports failure by
// returning an error. Each operation is timed from its own start.
func closedLoop(clk clock, clients int, window time.Duration, op func(seq int) error) []sample {
	end := clk.Now().Add(window)
	var next atomic.Int64
	var mu sync.Mutex
	var all []sample
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []sample
			for clk.Now().Before(end) {
				seq := int(next.Add(1) - 1)
				t0 := clk.Now()
				err := op(seq)
				mine = append(mine, sample{d: clk.Now().Sub(t0), failed: err != nil, seq: seq})
			}
			mu.Lock()
			all = append(all, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return all
}

// openResult is an open-loop phase: one sample per scheduled request,
// timed from its due time, and how late the generator started each one.
type openResult struct {
	samples []sample
	late    []time.Duration
}

// openLoop schedules requests at a fixed rate for window — request i is
// due at start + i/rate whatever happened before — and serves them with
// at most workers goroutines. Each request is timed from its due time,
// not from when a worker got to it: when the system stalls, the requests
// queued behind the stall are charged the wait, as independent users
// arriving on schedule would be.
func openLoop(clk clock, rate float64, window time.Duration, workers int, op func(seq int) error) openResult {
	start := clk.Now()
	interval := time.Duration(float64(time.Second) / rate)
	var next atomic.Int64
	var mu sync.Mutex
	var res openResult
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []sample
			var late []time.Duration
			for {
				seq := next.Add(1) - 1
				due := start.Add(time.Duration(seq) * interval)
				if due.Sub(start) >= window {
					break
				}
				clk.SleepUntil(due)
				late = append(late, clk.Now().Sub(due))
				err := op(int(seq))
				mine = append(mine, sample{d: clk.Now().Sub(due), failed: err != nil, seq: int(seq)})
			}
			mu.Lock()
			res.samples = append(res.samples, mine...)
			res.late = append(res.late, late...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return res
}

// countFailed counts failed or refused operations.
func countFailed(ss []sample) int {
	n := 0
	for _, s := range ss {
		if s.failed {
			n++
		}
	}
	return n
}
