package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// tailBeyond is the number of samples the reported tail percentile must
// leave above it: with n samples the tail is the (n-tailBeyond)-th
// smallest, the highest percentile that still rests on ten observations.
const tailBeyond = 10

// sample is one timed operation. A failed or refused operation carries
// no usable latency; it ranks above every successful one, so it always
// counts as missing whatever latency limit a percentile is held to.
type sample struct {
	d      time.Duration
	failed bool
	seq    int // the operation's sequence number in its phase
}

// ms is a sample's latency in milliseconds, +Inf for a failure.
func (s sample) ms() float64 {
	if s.failed {
		return math.Inf(1)
	}
	return float64(s.d) / float64(time.Millisecond)
}

// summary is a timing distribution reduced to the figures the benchmark
// reports: the median, the tail percentile with tailBeyond samples beyond
// it, and the sample count. Failed samples are +Inf.
type summary struct {
	n       int
	failed  int
	median  float64
	tail    float64
	tailPct float64 // percentile rank of tail, in percent; 0 when n <= tailBeyond
}

// summarize reduces raw values (any unit; +Inf marks a failure).
func summarize(vals []float64) summary {
	s := summary{n: len(vals)}
	if s.n == 0 {
		return s
	}
	x := append([]float64(nil), vals...)
	sort.Float64s(x)
	for _, v := range x {
		if math.IsInf(v, 1) {
			s.failed++
		}
	}
	s.median = median(x)
	s.tail, s.tailPct = tailOf(x)
	return s
}

// summarizeSamples is summarize over operation samples in milliseconds.
func summarizeSamples(ss []sample) summary {
	vals := make([]float64, len(ss))
	for i, s := range ss {
		vals[i] = s.ms()
	}
	return summarize(vals)
}

// median of an ascending slice; the mean of the middle pair for even n.
func median(x []float64) float64 {
	n := len(x)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return x[n/2]
	}
	a, b := x[n/2-1], x[n/2]
	if math.IsInf(b, 1) {
		return b
	}
	return (a + b) / 2
}

// tailOf picks, from an ascending slice, the highest percentile that has
// at least tailBeyond samples strictly above it in rank: index
// n-1-tailBeyond. Its rank (index+1)/n is returned in percent, so 1000
// samples give p99.0 and 300 give p96.3. With n <= tailBeyond no such
// percentile exists; the maximum is returned with rank 0 to say so.
func tailOf(x []float64) (float64, float64) {
	n := len(x)
	if n == 0 {
		return 0, 0
	}
	i := n - 1 - tailBeyond
	if i < 0 {
		return x[n-1], 0
	}
	return x[i], 100 * float64(i+1) / float64(n)
}

// String renders the summary for the human-readable report.
func (s summary) String() string {
	tail := "max"
	if s.tailPct > 0 {
		tail = fmt.Sprintf("p%.1f", s.tailPct)
	}
	return fmt.Sprintf("median %.4g, %s %.4g, n=%d, failed=%d", s.median, tail, s.tail, s.n, s.failed)
}

// durations converts a list of durations to values in the given unit.
func durations(ds []time.Duration, unit time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(unit)
	}
	return out
}
