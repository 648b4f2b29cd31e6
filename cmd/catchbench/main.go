// Command catchbench runs the simulator throughput benchmarks and
// maintains the committed benchmark baseline.
//
// Usage:
//
//	catchbench -out BENCH_sim.json              # record a new baseline
//	catchbench -compare BENCH_sim.json          # gate: fail on regression
//	catchbench -compare BENCH_sim.json -tol 0.2 # looser gate
//	catchbench -bench 'SimCATCH' -out /tmp/b.json
//
// It shells out to `go test -bench -benchmem` for the Sim* benchmarks
// (bench_test.go at the repo root), parses the output into a
// machine-readable report, and either writes it (-out) or compares it
// against a committed baseline (-compare), exiting non-zero when any
// benchmark's throughput dropped by more than -tol. With -count > 1 the
// samples are collapsed to per-metric medians before reporting, which
// is how `make benchcmp` (-count 5) keeps the gate stable on noisy
// machines; compare mode also prints the per-benchmark throughput
// delta against the baseline. `make bench` and `make benchcmp` wrap
// the two modes.
//
// The compare gate is drift-robust by default: every benchmark's
// throughput is divided by the -ref benchmark's throughput from the
// same run before comparing, so a uniformly slower or faster machine
// (different CI host, throttling) moves nothing, while a code change
// that slows one path relative to the reference still fails. Pass
// -ref "" for the old absolute comparison.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"

	"catch/internal/perf"
)

func main() {
	var (
		benchRe   = flag.String("bench", "Sim(Baseline|CATCH|MP|Batch|Scalar8|Sampled)$", "benchmark regexp passed to go test -bench")
		benchTime = flag.String("benchtime", "2s", "go test -benchtime")
		count     = flag.Int("count", 1, "go test -count (with count > 1 the report carries per-metric medians)")
		out       = flag.String("out", "", "write the parsed report as JSON to this path")
		compare   = flag.String("compare", "", "baseline JSON to compare the fresh run against")
		tol       = flag.Float64("tol", 0.10, "tolerated fractional throughput drop before failing")
		ref       = flag.String("ref", "BenchmarkSimBaseline", "reference benchmark for the drift-robust gate: throughputs are compared as ratios to it, so machine-speed changes cancel (empty = absolute comparison)")
		verbose   = flag.Bool("v", false, "echo raw go test output")
	)
	flag.Parse()
	if *out == "" && *compare == "" {
		fmt.Fprintln(os.Stderr, "catchbench: need -out and/or -compare")
		flag.Usage()
		os.Exit(2)
	}

	rep, err := run(*benchRe, *benchTime, *count, *verbose)
	if err != nil {
		fmt.Fprintln(os.Stderr, "catchbench:", err)
		os.Exit(1)
	}
	if len(rep.Results) == 0 {
		fmt.Fprintf(os.Stderr, "catchbench: no benchmarks matched %q\n", *benchRe)
		os.Exit(1)
	}
	if *count > 1 {
		// Collapse the -count samples to per-benchmark medians so one
		// noisy sample neither fails the gate nor lands in the baseline.
		rep = rep.Medians()
	}
	for _, r := range rep.Results {
		if r.InstrsPerSec > 0 {
			fmt.Printf("%-24s %12.0f ns/op %12.0f instrs/s %8.0f allocs/op\n",
				r.Name, r.NsPerOp, r.InstrsPerSec, r.AllocsPerOp)
		} else {
			fmt.Printf("%-24s %12.0f ns/op %8.0f allocs/op\n", r.Name, r.NsPerOp, r.AllocsPerOp)
		}
	}

	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "catchbench:", err)
			os.Exit(1)
		}
		if err := rep.WriteJSON(f); err == nil {
			err = f.Close()
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "catchbench:", err)
			os.Exit(1)
		}
		fmt.Println("wrote", *out)
	}

	if *compare != "" {
		base, err := perf.Load(*compare)
		if err != nil {
			fmt.Fprintln(os.Stderr, "catchbench:", err)
			os.Exit(1)
		}
		for _, d := range perf.Deltas(base, rep) {
			fmt.Println("  delta", d)
		}
		var regs []perf.Regression
		gate := "absolute throughput"
		if *ref != "" {
			gate = "throughput normalized to " + *ref
			regs, err = perf.CompareNormalized(base, rep, *ref, *tol)
			if err != nil {
				fmt.Fprintln(os.Stderr, "catchbench:", err)
				os.Exit(1)
			}
		} else {
			regs = perf.Compare(base, rep, *tol)
		}
		if len(regs) > 0 {
			fmt.Fprintf(os.Stderr, "catchbench: %d regression(s) beyond %.0f%% in %s vs %s:\n",
				len(regs), *tol*100, gate, *compare)
			for _, r := range regs {
				fmt.Fprintln(os.Stderr, "  ", r)
			}
			os.Exit(1)
		}
		fmt.Printf("ok: no regression beyond %.0f%% in %s vs %s\n", *tol*100, gate, *compare)
	}
}

// run executes the benchmarks in the current module and parses the
// output. Stdout is captured for parsing; with -v it is also echoed.
func run(benchRe, benchTime string, count int, verbose bool) (perf.Report, error) {
	args := []string{
		"test", "-run", "^$",
		"-bench", benchRe,
		"-benchmem",
		"-benchtime", benchTime,
		"-count", fmt.Sprint(count),
		".",
	}
	cmd := exec.Command("go", args...)
	var buf bytes.Buffer
	if verbose {
		cmd.Stdout = io.MultiWriter(&buf, os.Stdout)
	} else {
		cmd.Stdout = &buf
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return perf.Report{}, fmt.Errorf("go %v: %w", args, err)
	}
	return perf.Parse(&buf)
}
