// Package perf is the benchmark-regression harness: it parses the
// output of `go test -bench -benchmem`, renders it as a
// machine-readable report (BENCH_sim.json at the repo root), and
// compares a fresh run against a committed baseline so that simulator
// throughput regressions fail `make benchcmp` instead of landing
// silently.
package perf

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Result is one benchmark's measurements.
type Result struct {
	Name         string  `json:"name"`
	Runs         int     `json:"runs"`
	NsPerOp      float64 `json:"ns_per_op"`
	InstrsPerSec float64 `json:"instrs_per_sec,omitempty"`
	BytesPerOp   float64 `json:"bytes_per_op"`
	AllocsPerOp  float64 `json:"allocs_per_op"`
}

// Report is a full benchmark run: environment header plus results.
type Report struct {
	GoOS    string   `json:"goos,omitempty"`
	GoArch  string   `json:"goarch,omitempty"`
	Pkg     string   `json:"pkg,omitempty"`
	CPU     string   `json:"cpu,omitempty"`
	Results []Result `json:"benchmarks"`
}

// Parse reads `go test -bench -benchmem` output. Lines it does not
// recognize (test logs, PASS/ok trailers) are ignored, so the raw
// stream from the go tool can be piped in unfiltered. A recognized
// result line carrying a NaN, infinite or negative number is an error:
// it would otherwise fail late, in WriteJSON, or pass a comparison it
// should fail. Bytes that are not valid UTF-8 read as U+FFFD, which
// keeps every accepted report exact through WriteJSON and Load.
func Parse(r io.Reader) (Report, error) {
	var rep Report
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(strings.ToValidUTF8(sc.Text(), "\uFFFD"))
		switch {
		case strings.HasPrefix(line, "goos:"):
			rep.GoOS = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
			continue
		case strings.HasPrefix(line, "goarch:"):
			rep.GoArch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
			continue
		case strings.HasPrefix(line, "pkg:"):
			rep.Pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
			continue
		case strings.HasPrefix(line, "cpu:"):
			rep.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		res, ok, err := parseBenchLine(line)
		if err != nil {
			return rep, err
		}
		if !ok {
			continue
		}
		rep.Results = append(rep.Results, res)
	}
	if err := sc.Err(); err != nil {
		return rep, err
	}
	return rep, nil
}

// parseBenchLine decodes one result line, e.g.
//
//	BenchmarkSimCATCH  196  12249358 ns/op  8163700 instrs/s  3676927 B/op  74 allocs/op
//
// The name may carry a -N GOMAXPROCS suffix; value/unit pairs may come
// in any order and any subset. It reports false for a line that is not
// a result, and an error for a result whose run count or recorded
// metric is NaN, infinite or negative.
func parseBenchLine(line string) (Result, bool, error) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return Result{}, false, nil
	}
	name := fields[0]
	// Strip the GOMAXPROCS suffix (Benchmark... "-8") if present.
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	runs, err := strconv.Atoi(fields[1])
	if err != nil {
		return Result{}, false, nil
	}
	res := Result{Name: name, Runs: runs}
	seen := false
	bad := "" // the first out-of-range number, for the error
	if runs < 0 {
		bad = "run count " + fields[1]
	}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Result{}, false, nil
		}
		switch fields[i+1] {
		case "ns/op":
			res.NsPerOp = v
		case "instrs/s":
			res.InstrsPerSec = v
		case "B/op":
			res.BytesPerOp = v
		case "allocs/op":
			res.AllocsPerOp = v
		default:
			continue // unknown custom metric: skip
		}
		seen = true
		if bad == "" && (math.IsNaN(v) || math.IsInf(v, 0) || v < 0) {
			bad = fields[i] + " " + fields[i+1]
		}
	}
	if !seen {
		return Result{}, false, nil
	}
	if bad != "" {
		return Result{}, false, fmt.Errorf("perf: %s out of range in benchmark line %q", bad, line)
	}
	return res, true, nil
}

// Medians collapses repeated results for the same benchmark (as
// produced by `go test -count=N`) into one result per name carrying the
// per-metric median. The median of an even run count is the mean of the
// two middle samples. Runs sums the per-sample iteration counts, and
// first-appearance order is kept so the report reads like the raw
// stream. Comparing medians instead of single samples is what keeps the
// `make benchcmp` gate stable on noisy machines: one slow sample out of
// five no longer fails the build.
func (rep Report) Medians() Report {
	type group struct {
		ns, instrs, bytes, allocs []float64
		runs                      int
	}
	groups := make(map[string]*group)
	var order []string
	for _, r := range rep.Results {
		g, ok := groups[r.Name]
		if !ok {
			g = &group{}
			groups[r.Name] = g
			order = append(order, r.Name)
		}
		g.ns = append(g.ns, r.NsPerOp)
		g.instrs = append(g.instrs, r.InstrsPerSec)
		g.bytes = append(g.bytes, r.BytesPerOp)
		g.allocs = append(g.allocs, r.AllocsPerOp)
		g.runs += r.Runs
	}
	out := rep
	out.Results = make([]Result, 0, len(order))
	for _, name := range order {
		g := groups[name]
		out.Results = append(out.Results, Result{
			Name:         name,
			Runs:         g.runs,
			NsPerOp:      median(g.ns),
			InstrsPerSec: median(g.instrs),
			BytesPerOp:   median(g.bytes),
			AllocsPerOp:  median(g.allocs),
		})
	}
	return out
}

// median returns the middle value of vs (mean of the two middle values
// for even lengths). vs is not modified.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// Delta is one benchmark's throughput movement between two reports.
type Delta struct {
	Name     string
	Old, New float64 // throughput (bigger is better)
	Pct      float64 // (New/Old - 1) * 100
}

func (d Delta) String() string {
	return fmt.Sprintf("%s: %.0f -> %.0f (%+.1f%%)", d.Name, d.Old, d.New, d.Pct)
}

// Deltas reports the per-benchmark throughput change from baseline to
// current for every benchmark present in both, sorted by name. Unlike
// Compare it reports all movement, improvements included, so a gate run
// can print the whole picture rather than only the failures.
func Deltas(baseline, current Report) []Delta {
	base := make(map[string]Result, len(baseline.Results))
	for _, r := range baseline.Results {
		base[r.Name] = r
	}
	var ds []Delta
	for _, cur := range current.Results {
		old, ok := base[cur.Name]
		if !ok {
			continue
		}
		oldT, okOld := throughput(old)
		curT, okCur := throughput(cur)
		if !okOld || !okCur {
			continue
		}
		ds = append(ds, Delta{
			Name: cur.Name, Old: oldT, New: curT, Pct: (curT/oldT - 1) * 100,
		})
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i].Name < ds[j].Name })
	return ds
}

// WriteJSON renders the report as stable, indented JSON (results
// sorted by name so reruns diff cleanly).
func (rep Report) WriteJSON(w io.Writer) error {
	sort.Slice(rep.Results, func(i, j int) bool {
		return rep.Results[i].Name < rep.Results[j].Name
	})
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// Load reads a report previously written with WriteJSON.
func Load(path string) (Report, error) {
	f, err := os.Open(path)
	if err != nil {
		return Report{}, err
	}
	defer func() { _ = f.Close() }() // read-only; close cannot lose data
	var rep Report
	if err := json.NewDecoder(f).Decode(&rep); err != nil {
		return Report{}, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}

// Regression describes one benchmark that got worse than tolerated.
type Regression struct {
	Name   string
	Metric string  // "throughput" or "allocs/op"
	Old    float64 // baseline value
	New    float64 // current value
}

func (r Regression) String() string {
	switch {
	case r.Metric == "throughput":
		return fmt.Sprintf("%s: throughput %.0f -> %.0f (%.1f%%)",
			r.Name, r.Old, r.New, (r.New/r.Old-1)*100)
	case strings.HasPrefix(r.Metric, "throughput/"):
		return fmt.Sprintf("%s: %s %.3f -> %.3f (%.1f%%)",
			r.Name, r.Metric, r.Old, r.New, (r.New/r.Old-1)*100)
	default:
		return fmt.Sprintf("%s: %s %.0f -> %.0f", r.Name, r.Metric, r.Old, r.New)
	}
}

// Compare checks current against baseline and returns the benchmarks
// whose throughput dropped by more than tol (e.g. 0.10 for 10%).
// Throughput is instrs/s when reported, else 1/ns-per-op. Benchmarks
// present in only one report are skipped: the gate protects tracked
// metrics, it does not pin the benchmark set. Steady-state allocation
// counts are guarded separately by testing.AllocsPerRun tests, so
// wall-clock noise in B/op is deliberately not gated here.
func Compare(baseline, current Report, tol float64) []Regression {
	base := make(map[string]Result, len(baseline.Results))
	for _, r := range baseline.Results {
		base[r.Name] = r
	}
	var regs []Regression
	for _, cur := range current.Results {
		old, ok := base[cur.Name]
		if !ok {
			continue
		}
		oldT, okOld := throughput(old)
		curT, okCur := throughput(cur)
		if !okOld || !okCur {
			continue
		}
		if curT < oldT*(1-tol) {
			regs = append(regs, Regression{
				Name: cur.Name, Metric: "throughput", Old: oldT, New: curT,
			})
		}
	}
	sort.Slice(regs, func(i, j int) bool { return regs[i].Name < regs[j].Name })
	return regs
}

// CompareNormalized is the drift-robust variant of Compare: every
// benchmark's throughput is first divided by the throughput of the ref
// benchmark measured in the same report, and the gate fires when that
// ratio — not the absolute rate — dropped by more than tol. A globally
// slower or faster machine (CI host change, thermal throttling, shared
// tenancy) moves numerator and denominator together and cancels out;
// what remains is how the benchmark moved relative to the reference
// workload, which is what a code change actually shifts. The ref
// benchmark itself cannot be gated this way (its ratio is identically
// 1) and is skipped; absolute movement of the whole suite is visible
// in the Deltas print, not gated.
func CompareNormalized(baseline, current Report, ref string, tol float64) ([]Regression, error) {
	baseRef, okB := refThroughput(baseline, ref)
	curRef, okC := refThroughput(current, ref)
	if !okB || !okC {
		return nil, fmt.Errorf("reference benchmark %q missing from %s report",
			ref, map[bool]string{false: "baseline", true: "current"}[okB])
	}
	base := make(map[string]Result, len(baseline.Results))
	for _, r := range baseline.Results {
		base[r.Name] = r
	}
	var regs []Regression
	for _, cur := range current.Results {
		if cur.Name == ref {
			continue
		}
		old, ok := base[cur.Name]
		if !ok {
			continue
		}
		oldT, okOld := throughput(old)
		curT, okCur := throughput(cur)
		if !okOld || !okCur {
			continue
		}
		oldRatio, curRatio := oldT/baseRef, curT/curRef
		if curRatio < oldRatio*(1-tol) {
			regs = append(regs, Regression{
				Name: cur.Name, Metric: "throughput/" + ref, Old: oldRatio, New: curRatio,
			})
		}
	}
	sort.Slice(regs, func(i, j int) bool { return regs[i].Name < regs[j].Name })
	return regs, nil
}

// refThroughput finds the named benchmark's throughput in a report.
func refThroughput(rep Report, name string) (float64, bool) {
	for _, r := range rep.Results {
		if r.Name == name {
			return throughput(r)
		}
	}
	return 0, false
}

// throughput extracts a bigger-is-better rate from a result.
func throughput(r Result) (float64, bool) {
	if r.InstrsPerSec > 0 {
		return r.InstrsPerSec, true
	}
	if r.NsPerOp > 0 {
		return 1e9 / r.NsPerOp, true
	}
	return 0, false
}
