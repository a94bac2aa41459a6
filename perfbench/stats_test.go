package main

import (
	"math"
	"testing"
	"time"
)

func TestTailIsHighestPercentileWithTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n       int
		wantVal float64 // values are 1..n, so the value is the rank
		wantPct float64
	}{
		{n: 1000, wantVal: 990, wantPct: 99.0},
		{n: 300, wantVal: 290, wantPct: 100 * 290.0 / 300},
		{n: 11, wantVal: 1, wantPct: 100 * 1.0 / 11},
		{n: 10, wantVal: 10, wantPct: 0}, // no percentile has ten beyond it: max, rank 0
		{n: 1, wantVal: 1, wantPct: 0},
	} {
		vals := make([]float64, tc.n)
		for i := range vals {
			vals[len(vals)-1-i] = float64(i + 1) // descending: summarize must sort
		}
		s := summarize(vals)
		if s.tail != tc.wantVal || math.Abs(s.tailPct-tc.wantPct) > 1e-9 || s.n != tc.n {
			t.Errorf("n=%d: tail %v at p%v (n=%d), want %v at p%v", tc.n, s.tail, s.tailPct, s.n, tc.wantVal, tc.wantPct)
		}
		beyond := 0
		for _, v := range vals {
			if v > s.tail {
				beyond++
			}
		}
		if tc.n > tailBeyond && beyond != tailBeyond {
			t.Errorf("n=%d: %d samples beyond the tail, want %d", tc.n, beyond, tailBeyond)
		}
	}
}

func TestMedian(t *testing.T) {
	if m := summarize([]float64{5, 1, 3}).median; m != 3 {
		t.Errorf("odd median %v, want 3", m)
	}
	if m := summarize([]float64{4, 1, 3, 2}).median; m != 2.5 {
		t.Errorf("even median %v, want 2.5", m)
	}
	if s := summarize(nil); s.n != 0 || s.median != 0 || s.tail != 0 {
		t.Errorf("empty summary %+v", s)
	}
}

// Failed and refused requests rank above every success: they count in
// the failure share and as misses of any latency limit.
func TestFailuresMissEveryLimit(t *testing.T) {
	var ss []sample
	for i := 0; i < 100; i++ {
		ss = append(ss, sample{d: time.Millisecond})
	}
	for i := 0; i < 11; i++ {
		ss = append(ss, sample{failed: true})
	}
	s := summarizeSamples(ss)
	if s.failed != 11 || countFailed(ss) != 11 {
		t.Fatalf("failed count %d/%d, want 11", s.failed, countFailed(ss))
	}
	if !math.IsInf(s.tail, 1) {
		t.Errorf("tail %v with 11 failures in 111 samples, want +Inf (a miss of any limit)", s.tail)
	}
	if s.median != 1 {
		t.Errorf("median %v, want 1 ms", s.median)
	}

	r := newResults()
	r.count(ss)
	if r.attempted != 111 || r.failed != 11 {
		t.Errorf("attempted/failed %d/%d, want 111/11", r.attempted, r.failed)
	}
	e := &env{res: r}
	servedShare(e)
	if got, want := r.e2e["served_share"], 100.0/111; math.Abs(got-want) > 1e-12 {
		t.Errorf("served_share %v, want %v", got, want)
	}
}
