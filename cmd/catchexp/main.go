// Command catchexp regenerates the paper's tables and figures.
//
// Usage:
//
//	catchexp -exp fig10                 # one experiment
//	catchexp -exp all                   # the full evaluation
//	catchexp -exp fig1 -insts 500000    # custom budget
//	catchexp -exp fig13 -parallel 8     # shard the sweep over 8 workers
//	catchexp -exp all -cache /tmp/catch # persist results across runs
//	catchexp -exp fig10 -json           # machine-readable tables
//	catchexp -exp fig13 -batch          # lock-step batch kernel
//	catchexp -exp fig13 -sample         # representative-interval sampling
//	catchexp -list
//
// Simulations run through the parallel execution engine: jobs shard
// across -parallel workers and identical jobs (the shared baseline
// runs, or anything already in the -cache directory) are served from
// the content-addressed result cache. Wall-clock and cache counters
// are reported on stderr.
//
// With -cache an interrupted evaluation — Ctrl-C included — prints the
// exact command that continues it: the same flags over the same cache,
// where every finished job is served from disk and only the unfinished
// ones execute.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"

	"catch/internal/experiments"
	"catch/internal/runner"
)

// options collects the parsed command line. validate checks it and
// resolves the experiment id list; every validation error names the
// offending flag and makes main exit with status 2.
type options struct {
	exp      string
	insts    int64
	warmup   int64
	nwl      int
	mixes    int
	parallel int
	sample   bool
	sampleIv int64
	sampleK  int

	ids []string // resolved by validate
}

// validate checks flag values and combinations.
func validate(o *options) error {
	if o.insts <= 0 {
		return fmt.Errorf("-insts must be positive (got %d)", o.insts)
	}
	if o.warmup < 0 {
		return fmt.Errorf("-warmup must be >= 0 (got %d)", o.warmup)
	}
	if o.nwl < 0 {
		return fmt.Errorf("-workloads must be >= 0 (0 = all; got %d)", o.nwl)
	}
	if o.mixes < 0 {
		return fmt.Errorf("-mixes must be >= 0 (0 = all; got %d)", o.mixes)
	}
	if o.parallel < 1 {
		return fmt.Errorf("-parallel must be >= 1 (got %d)", o.parallel)
	}
	if !o.sample && (o.sampleIv != 0 || o.sampleK != 0) {
		return errors.New("-sample-interval/-sample-k only apply with -sample")
	}
	if o.sampleIv < 0 {
		return fmt.Errorf("-sample-interval must be >= 0 (0 derives %d intervals; got %d)",
			runner.DefaultSampleIntervals, o.sampleIv)
	}
	if o.sampleK < 0 {
		return fmt.Errorf("-sample-k must be >= 0 (0 defaults to %d; got %d)",
			runner.DefaultSampleK, o.sampleK)
	}
	if o.sample && o.sampleIv > 0 && o.insts%o.sampleIv != 0 {
		return fmt.Errorf("-sample-interval %d must divide -insts %d", o.sampleIv, o.insts)
	}
	switch {
	case o.exp == "all":
		o.ids = experiments.IDs()
	case slices.Contains(experiments.IDs(), o.exp):
		o.ids = []string{o.exp}
	default:
		return fmt.Errorf("-exp: unknown experiment %q (valid: %s, all)",
			o.exp, strings.Join(experiments.IDs(), ", "))
	}
	return nil
}

// runExperiment runs one experiment, converting the drivers' panic
// path (they construct jobs from a static registry, so they panic on
// failure rather than threading errors) back into an error the CLI can
// report — a canceled sweep must end with the resume hint, not a stack
// trace.
func runExperiment(id string, b experiments.Budget) (tables []experiments.Table, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("%s: %v", id, p)
		}
	}()
	return experiments.Run(id, b)
}

// resumeCommand reconstructs the exact invocation that continues an
// interrupted evaluation: same experiment, same budget (keys depend on
// it), same cache.
func resumeCommand(o *options, cacheDir string, jsonOut, batch bool) string {
	cmd := fmt.Sprintf("catchexp -exp %s -insts %d -warmup %d -workloads %d -mixes %d -parallel %d -cache %q",
		o.exp, o.insts, o.warmup, o.nwl, o.mixes, o.parallel, cacheDir)
	if jsonOut {
		cmd += " -json"
	}
	if batch {
		cmd += " -batch"
	}
	if o.sample {
		cmd += " -sample"
		if o.sampleIv > 0 {
			cmd += fmt.Sprintf(" -sample-interval %d", o.sampleIv)
		}
		if o.sampleK > 0 {
			cmd += fmt.Sprintf(" -sample-k %d", o.sampleK)
		}
	}
	return cmd
}

func main() {
	var (
		exp      = flag.String("exp", "fig10", "experiment id, or 'all'")
		insts    = flag.Int64("insts", 300_000, "measured instructions per workload")
		warmup   = flag.Int64("warmup", 150_000, "warmup instructions per workload")
		nwl      = flag.Int("workloads", 0, "restrict to N workloads (0 = all 70)")
		mixes    = flag.Int("mixes", 16, "number of MP mixes for fig14 (0 = all 60)")
		list     = flag.Bool("list", false, "list experiment ids and exit")
		parallel = flag.Int("parallel", runtime.GOMAXPROCS(0), "simulation worker goroutines")
		jsonOut  = flag.Bool("json", false, "emit tables as JSON instead of text")
		cacheDir = flag.String("cache", "", "result cache directory (empty = in-memory only); a re-run over it computes only the missing jobs")
		batch    = flag.Bool("batch", false, "lock-step configurations sharing a workload through one generator (results are byte-identical to scalar)")

		sampleOn = flag.Bool("sample", false, "representative-interval sampling: measure only clustered representatives on a system warmed in place (approximate results with error bars)")
		sampleIv = flag.Int64("sample-interval", 0, "sampling interval length in instructions (0 derives -insts/16; must divide -insts)")
		sampleK  = flag.Int("sample-k", 0, "representative intervals to measure per job (0 defaults to 4)")
	)
	flag.Parse()

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Println(id)
		}
		return
	}

	opts := options{
		exp: *exp, insts: *insts, warmup: *warmup, nwl: *nwl, mixes: *mixes, parallel: *parallel,
		sample: *sampleOn, sampleIv: *sampleIv, sampleK: *sampleK,
	}
	if err := validate(&opts); err != nil {
		fmt.Fprintln(os.Stderr, "catchexp:", err)
		os.Exit(2)
	}

	eng := runner.New(runner.Options{
		Workers:        *parallel,
		Cache:          runner.NewCache(*cacheDir),
		Batch:          *batch,
		Sample:         *sampleOn,
		SampleInterval: *sampleIv,
		SampleK:        *sampleK,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "catchexp: "+format+"\n", args...)
		},
	})
	experiments.UseEngine(eng)

	// A cancelable context lets Ctrl-C stop the evaluation cleanly:
	// finished jobs are already in the cache, undone ones come back
	// Canceled, and an identical re-run computes exactly the remainder.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	experiments.UseContext(ctx)

	b := experiments.Budget{Insts: *insts, Warmup: *warmup, Workloads: *nwl, Mixes: *mixes}
	ids := opts.ids
	start := time.Now()
	var all []experiments.Table
	for _, id := range ids {
		tables, err := runExperiment(id, b)
		if err != nil {
			fmt.Fprintln(os.Stderr, "catchexp:", err)
			if ctx.Err() != nil && *cacheDir == "" {
				fmt.Fprintln(os.Stderr, "catchexp: interrupted; no results were kept (run with -cache DIR so a re-run skips finished jobs)")
			} else if ctx.Err() != nil {
				fmt.Fprintf(os.Stderr, "catchexp: interrupted; continue with %s\n",
					resumeCommand(&opts, *cacheDir, *jsonOut, *batch))
			}
			os.Exit(1)
		}
		if *jsonOut {
			all = append(all, tables...)
			continue
		}
		for _, t := range tables {
			fmt.Println(t.Print())
		}
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(all); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	fmt.Fprintf(os.Stderr, "catchexp: %v elapsed, %d workers, %d simulations, %d batched, cache: %s\n",
		time.Since(start).Round(time.Millisecond), eng.Workers(), eng.Executed(),
		eng.Batched(), eng.Cache().Stats())
	if *sampleOn {
		fmt.Fprintf(os.Stderr, "catchexp: %d jobs sampled, %d fell back to full simulation\n",
			eng.Sampled(), eng.SampleFallbacks())
	}
}
