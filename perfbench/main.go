// Command perfbench is the repository's benchmark. It drives the CATCH
// simulator, the catchd result service and a three-node catchd cluster
// through their Go APIs, checks every output, and prints its metrics:
//
//	go build -o perfbench . && ./perfbench -workload sweep -seed 1 -seconds 20 -trace 0
//
// Workloads are sweep, serve and cluster (README.md says why each
// exists). With -trace 0 the last stdout line carries the end-to-end
// metrics; with -trace 1 it carries the per-layer metrics of a separate
// traced run. Every timing is host wall-clock time. Simulated
// statistics are deterministic, so they are checked for identity and
// never reported as speed. The command exits non-zero when any output
// check fails.
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
	"strconv"
	"strings"
	"time"
)

// defaultSeed drives the inputs when -seed is not given. README.md
// names the held-out seed that later performance claims must also
// hold on.
const defaultSeed = 1

// e2eMetrics are the end-to-end metrics of the result line, the same
// for every workload (README.md maps them onto each workload).
var e2eMetrics = map[string]string{
	"setup_s":       "s",
	"peak_rss_mb":   "MB",
	"compute_ms":    "ms",
	"cached_ms":     "ms",
	"cached_p90_ms": "ms",
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run carries one invocation's settings and accounting.
type run struct {
	seed    uint64
	window  time.Duration
	workers int
	dir     string // scratch directory inside the working tree

	attempted, failed int64
	problems          []string
	metrics           map[string]metric
}

// expect counts one attempted operation or output check, failed unless
// good.
func (r *run) expect(good bool, format string, args ...any) bool {
	r.attempted++
	if !good {
		r.failed++
		if len(r.problems) < 20 {
			r.problems = append(r.problems, fmt.Sprintf(format, args...))
		}
	}
	return good
}

// print writes one human-readable metric line with its sample count.
func (r *run) print(name string, v float64, unit string, n int) {
	fmt.Printf("%-28s %16.6f %-6s n=%d\n", name, v, unit, n)
}

// printDist prints a distribution as its p50 plus the highest
// percentile with at least ten samples beyond it.
func (r *run) printDist(name string, xs []float64, unit string) {
	s := summarize(xs)
	r.print(name+"_p50", s.P50, unit, s.N)
	if s.TailQ > 0.5 {
		r.print(fmt.Sprintf("%s_p%s", name, strconv.FormatFloat(100*s.TailQ, 'f', -1, 64)), s.Tail, unit, s.N)
	}
}

// report sets a metric for the result line and prints it.
func (r *run) report(name string, v float64, unit string, n int) {
	r.metrics[name] = metric{Value: v, Unit: unit}
	r.print(name, v, unit, n)
}

func main() {
	os.Exit(realMain())
}

func realMain() int {
	workload := flag.String("workload", "sweep", "workload: sweep, serve or cluster")
	seed := flag.Uint64("seed", defaultSeed, "input seed (workload subset, mixes, arrivals, keys)")
	seconds := flag.Float64("seconds", 10, "measurement window in seconds")
	traced := flag.Int("trace", 0, "1 runs the traced per-layer probe instead of the end-to-end run")
	dir := flag.String("dir", ".bench_build", "scratch directory (created if absent; the run's own subdirectory is removed on exit)")
	flag.Parse()
	if *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	workloadFns := map[string]func(*run) error{"sweep": runSweep, "serve": runServe, "cluster": runCluster}
	fn, ok := workloadFns[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown -workload %q (want sweep, serve or cluster)\n", *workload)
		return 2
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	scratch, err := os.MkdirTemp(*dir, "perfbench-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	defer func() { _ = os.RemoveAll(scratch) }() // best-effort cleanup of the run's scratch
	if scratch, err = filepath.Abs(scratch); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	r := &run{
		seed:    *seed,
		window:  time.Duration(*seconds * float64(time.Second)),
		workers: runtime.NumCPU(),
		dir:     scratch,
		metrics: make(map[string]metric),
	}
	fmt.Printf("perfbench workload=%s seed=%d seconds=%g trace=%d workers=%d %s\n",
		*workload, r.seed, *seconds, *traced, r.workers, runtime.Version())

	want := e2eMetrics
	if *traced == 1 {
		err = runTraced(r, filepath.Join(*dir, fmt.Sprintf("spans-%s-%d.json", *workload, r.seed)))
		want = layerMetrics
	} else {
		err = fn(r)
		if err == nil {
			r.report("peak_rss_mb", peakRSSMB(), "MB", 1)
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	res := result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: make(map[string]metric)}
	for name, unit := range want {
		m, ok := r.metrics[name]
		if !ok || m.Unit != unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s missing or malformed: %+v\n", name, m)
			return 1
		}
		res.Metrics[name] = m
	}
	fmt.Printf("%-28s %16.6f %-6s failed=%d attempted=%d\n", "fail_frac", fracOf(r.failed, r.attempted), "1", r.failed, r.attempted)
	for _, p := range r.problems {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %s\n", p)
	}
	raw, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(raw))
	if !res.Correct {
		return 1
	}
	return 0
}

func fracOf(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// peakRSSMB reads the process's peak resident set size (VmHWM).
func peakRSSMB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			if f := strings.Fields(rest); len(f) > 0 {
				if kb, err := strconv.ParseFloat(f[0], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	return math.NaN()
}

// medianSetup runs setup n times, tearing down all but the last, and
// returns the last value with the median set-up time in seconds.
func medianSetup[T any](n int, setup func() (T, error), teardown func(T)) (T, float64, error) {
	var last T
	var ds []float64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		v, err := setup()
		ds = append(ds, time.Since(t0).Seconds())
		if err != nil {
			return last, 0, err
		}
		if i < n-1 {
			teardown(v)
		}
		last = v
	}
	return last, summarize(ds).P50, nil
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
