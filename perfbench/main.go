package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// env is one benchmark run: its inputs, its clock budget, the optional
// tracer and counting filesystem, and the results it accumulates.
type env struct {
	seed   int64
	window time.Duration // the measured time, --seconds
	procs  int           // GOMAXPROCS; also the client goroutine cap
	tr     *tracer       // nil in untraced runs
	fs     *countFS      // nil in untraced runs
	dir    string        // working directory for stores, under .bench_build
	res    *results
}

func (e *env) traced() bool { return e.tr != nil }

// results accumulates metric values, correctness findings and the
// human-readable report.
type results struct {
	e2e       map[string]float64
	layer     map[string]float64
	attempted int
	failed    int
	problems  []string
	report    []string
}

func newResults() *results {
	return &results{e2e: map[string]float64{}, layer: map[string]float64{}}
}

// check records a correctness failure when ok is false.
func (r *results) check(ok bool, format string, args ...any) {
	if !ok {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// note adds a line to the human-readable report.
func (r *results) note(format string, args ...any) {
	r.report = append(r.report, fmt.Sprintf(format, args...))
}

// count adds a timed phase's operations to attempted/failed.
func (r *results) count(ss []sample) {
	r.attempted += len(ss)
	r.failed += countFailed(ss)
}

// layerTiming stores a per-layer timing summary as <name> (the median)
// and <name>.tail, and reports it with its sample count. Values not in
// the per-layer list are reported only.
func (r *results) layerTiming(name string, s summary) {
	r.layer[name] = s.median
	r.layer[name+".tail"] = s.tail
	r.note("%-34s %s", name, s)
}

// failLatencyMs stands in for an infinite latency in the JSON result: a
// reported percentile that lands on a failed request is a miss of any
// limit, and JSON has no infinity.
const failLatencyMs = 1e9

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

var workloads = map[string]func(*env) error{
	"query_http":   runQueryHTTP,
	"search_scale": runSearchScale,
	"ingest_mixed": runIngestMixed,
}

func main() {
	os.Exit(run())
}

func run() int {
	workload := flag.String("workload", "", "workload: query_http, search_scale or ingest_mixed")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 records spans and reports per-layer metrics instead of end-to-end ones")
	flag.Parse()
	fn, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		return 2
	}
	procs := runtime.NumCPU()
	runtime.GOMAXPROCS(procs)

	dir, err := filepath.Abs(filepath.Join(".bench_build", "perfbench", fmt.Sprintf("%s-%d", *workload, os.Getpid())))
	if err == nil {
		err = os.MkdirAll(dir, 0o755)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	defer os.RemoveAll(dir)

	e := &env{
		seed:   *seed,
		window: time.Duration(*seconds) * time.Second,
		procs:  procs,
		dir:    dir,
		res:    newResults(),
	}
	if *trace == 1 {
		e.tr = &tracer{}
		e.fs = &countFS{}
	}
	fmt.Printf("perfbench %s seed=%d seconds=%d trace=%d | %s\n", *workload, *seed, *seconds, *trace, hostLine(procs))
	if err := fn(e); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	if e.traced() {
		spans := e.tr.snapshot()
		e.res.layer["trace.spans"] = float64(len(spans))
		tracePath := filepath.Join(".bench_build", fmt.Sprintf("trace-%s-seed%d.jsonl", *workload, *seed))
		if err := writeSpans(tracePath, spans); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 2
		}
		fmt.Println("spans written to", tracePath)
	}
	return e.res.emit(e.traced())
}

// emit prints the report and the one-line JSON result. A run whose
// outputs failed a check puts its report on standard error, prints a
// result without metrics and exits 1.
func (r *results) emit(traced bool) int {
	out := output{Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	if out.Attempted < 1 {
		r.problems = append(r.problems, "no operations attempted")
	}
	if len(r.problems) > 0 {
		for _, l := range r.report {
			fmt.Fprintln(os.Stderr, l)
		}
		for _, p := range r.problems {
			fmt.Fprintln(os.Stderr, "CHECK FAILED:", p)
		}
		b, _ := json.Marshal(out)
		fmt.Println(string(b))
		return 1
	}
	for _, l := range r.report {
		fmt.Println(l)
	}
	out.Correct = true
	list, vals := endToEnd, r.e2e
	if traced {
		list, vals = perLayer, r.layer
	}
	var missing []string
	for _, m := range list {
		v, ok := vals[m.name]
		if !ok {
			if !traced {
				missing = append(missing, m.name)
			}
			v = 0 // a layer this workload does not reach
		}
		if math.IsInf(v, 1) {
			v = failLatencyMs
		}
		if math.IsNaN(v) || math.IsInf(v, -1) {
			missing = append(missing, m.name)
			continue
		}
		out.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
	}
	if len(missing) > 0 {
		fmt.Fprintln(os.Stderr, "perfbench: metrics not measured:", strings.Join(missing, ", "))
		return 2
	}
	names := make([]string, 0, len(out.Metrics))
	for n := range out.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-34s %16.6g %s\n", n, out.Metrics[n].Value, out.Metrics[n].Unit)
	}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	fmt.Println(string(b))
	return 0
}

// hostLine describes the machine the numbers come from.
func hostLine(procs int) string {
	return fmt.Sprintf("cpu=%q nproc=%d GOMAXPROCS=%d go=%s", cpuModel(), procs, runtime.GOMAXPROCS(0), runtime.Version())
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}
