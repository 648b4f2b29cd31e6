// Command catchsim runs workloads on system configurations and prints
// detailed statistics.
//
// Usage:
//
//	catchsim -workload mcf -config catch -n 300000 -warmup 50000
//	catchsim -workload mcf,hmmer -config catch,baseline-excl -parallel 4
//	catchsim -workload mcf -config catch -json
//	catchsim -workload mcf -config catch -trace out.json   # Chrome/Perfetto trace
//	catchsim -workload mcf -config catch -dump-critpath    # critical-path table
//	catchsim -workload mcf,hmmer -config catch -cache /tmp/cc  # re-run to continue after an interrupt
//	catchsim -workload mcf -config catch,baseline-excl,nol2-6.5 -batch
//	catchsim -workload mcf -config catch -sample -sample-interval 1000 -sample-k 3
//	catchsim -list            # list workloads
//	catchsim -configs         # list configurations
//
// Comma-separated workload/config lists expand into a grid that runs
// through the parallel execution engine; -json emits the engine's
// JobResult records (content-address key, timing, full Result structs)
// instead of the human-readable report. -trace and -dump-critpath
// attach the telemetry tracer and therefore run a single
// (config, workload) job in-process.
//
// -cache keeps every completed result on disk under its content
// address. An interrupted run — Ctrl-C included — continues when the
// same command runs again: finished jobs come back from the cache and
// only the missing ones execute.
//
// -batch executes single-thread jobs sharing a (workload, -n, -warmup)
// key through the lock-step batch kernel: one generator of the workload
// feeds every configuration, a chunk at a time, so the instruction
// stream is generated once per batch and never recorded. Results and
// cache keys are byte-identical to the scalar path — batching is
// purely an execution strategy.
//
// -sample resolves eligible jobs by representative-interval sampling:
// the workload is profiled once, intervals cluster into -sample-k
// groups, and only one representative per group is simulated (on a
// system warmed in place, with the gaps between windows stepped) before
// extrapolating the full-run statistics. Sampled results are approximate — they carry a
// SampleMeta block with per-metric error estimates — and cache under
// different keys than exact ones. Any sampling failure falls back to
// full simulation of the same job.
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
	"sort"
	"strings"
	"syscall"

	"catch/internal/config"
	"catch/internal/core"
	"catch/internal/experiments"
	"catch/internal/runner"
	"catch/internal/stats"
	"catch/internal/telemetry"
	"catch/internal/workloads"
)

// options collects the parsed command line. validate checks values
// and combinations before any simulation starts and resolves the
// configuration names; every validation error names the offending
// flag and makes main exit with status 2.
type options struct {
	workloads   []string
	configs     []string
	n           int64
	warmup      int64
	parallel    int
	traceOut    string
	traceSample uint64
	traceBuf    int
	dumpCrit    bool
	cacheDir    string
	batch       bool
	sample      bool
	sampleIv    int64
	sampleK     int

	cfgs []config.SystemConfig // resolved by validate
}

// validate checks flag values and combinations.
func validate(o *options) error {
	if len(o.configs) == 0 {
		return errors.New("-config must name at least one configuration")
	}
	if len(o.workloads) == 0 {
		return errors.New("-workload must name at least one workload")
	}
	if o.n <= 0 {
		return fmt.Errorf("-n must be positive (got %d)", o.n)
	}
	if o.warmup < 0 {
		return fmt.Errorf("-warmup must be >= 0 (got %d)", o.warmup)
	}
	if o.parallel < 1 {
		return fmt.Errorf("-parallel must be >= 1 (got %d)", o.parallel)
	}
	if o.traceSample == 0 {
		return errors.New("-trace-sample must be >= 1 (1 records every event)")
	}
	if o.traceBuf < 1 {
		return fmt.Errorf("-trace-buf must be >= 1 (got %d)", o.traceBuf)
	}
	o.cfgs = o.cfgs[:0]
	for _, name := range o.configs {
		cfg, ok := experiments.ConfigByName(name)
		if !ok {
			return fmt.Errorf("-config: unknown configuration %q (valid: %s)",
				name, strings.Join(experiments.ConfigNames(), ", "))
		}
		o.cfgs = append(o.cfgs, cfg)
	}
	for _, name := range o.workloads {
		if _, ok := workloads.ByName(name); !ok {
			return fmt.Errorf("-workload: unknown workload %q (valid: %s)",
				name, strings.Join(workloadNames(), ", "))
		}
	}
	if (o.traceOut != "" || o.dumpCrit) && (len(o.configs) != 1 || len(o.workloads) != 1) {
		return fmt.Errorf("-trace/-dump-critpath run a single job; got %d configs x %d workloads",
			len(o.configs), len(o.workloads))
	}
	if o.batch && (o.traceOut != "" || o.dumpCrit) {
		return errors.New("-batch runs through the engine and cannot be combined with -trace/-dump-critpath")
	}
	if o.sample && (o.traceOut != "" || o.dumpCrit) {
		return errors.New("-sample runs through the engine and cannot be combined with -trace/-dump-critpath")
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
	if o.sample && o.sampleIv > 0 && o.n%o.sampleIv != 0 {
		return fmt.Errorf("-sample-interval %d must divide -n %d", o.sampleIv, o.n)
	}
	return nil
}

// splitList splits a comma-separated flag value, trimming whitespace
// and dropping empty entries.
func splitList(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}

func main() {
	var (
		workload = flag.String("workload", "mcf", "workload name(s), comma-separated (see -list)")
		cfgName  = flag.String("config", "baseline-excl", "configuration name(s), comma-separated (see -configs)")
		n        = flag.Int64("n", 300_000, "instructions to measure")
		warmup   = flag.Int64("warmup", 60_000, "warmup instructions")
		parallel = flag.Int("parallel", runtime.GOMAXPROCS(0), "simulation worker goroutines")
		jsonOut  = flag.Bool("json", false, "emit machine-readable JSON results")
		list     = flag.Bool("list", false, "list workloads and exit")
		configs  = flag.Bool("configs", false, "list configurations and exit")

		traceOut    = flag.String("trace", "", "write a Chrome trace-event JSON file (load in Perfetto); single job only")
		traceSample = flag.Uint64("trace-sample", 64, "record 1-in-N of the high-frequency trace events (instructions, cache accesses)")
		traceBuf    = flag.Int("trace-buf", 1<<20, "trace ring capacity in events (oldest events drop on overflow)")
		dumpCrit    = flag.Bool("dump-critpath", false, "print the recorded critical-path walks as a table; single job only")

		cacheDir = flag.String("cache", "", "result cache directory (empty = in-memory only); re-running an interrupted sweep over it computes only the missing jobs")
		batch    = flag.Bool("batch", false, "lock-step configurations sharing a workload through one generator (results are byte-identical to scalar)")

		sampleOn = flag.Bool("sample", false, "representative-interval sampling: profile, cluster, warm in place, simulate only representatives (extrapolated results carry error bars)")
		sampleIv = flag.Int64("sample-interval", 0, "sampling interval length in instructions (0 derives -n/16; must divide -n)")
		sampleK  = flag.Int("sample-k", 0, "representative intervals to measure per job (0 defaults to 4)")
	)
	flag.Parse()

	if *list {
		byCat := workloads.ByCategory()
		cats := make([]string, 0, len(byCat))
		for c := range byCat {
			cats = append(cats, c)
		}
		sort.Strings(cats)
		for _, c := range cats {
			fmt.Printf("%s:\n", c)
			for _, w := range byCat[c] {
				fmt.Printf("  %s\n", w.WName)
			}
		}
		return
	}
	if *configs {
		for _, name := range experiments.ConfigNames() {
			fmt.Println(name)
		}
		return
	}

	opts := options{
		workloads:   splitList(*workload),
		configs:     splitList(*cfgName),
		n:           *n,
		warmup:      *warmup,
		parallel:    *parallel,
		traceOut:    *traceOut,
		traceSample: *traceSample,
		traceBuf:    *traceBuf,
		dumpCrit:    *dumpCrit,
		cacheDir:    *cacheDir,
		batch:       *batch,
		sample:      *sampleOn,
		sampleIv:    *sampleIv,
		sampleK:     *sampleK,
	}
	if err := validate(&opts); err != nil {
		fmt.Fprintln(os.Stderr, "catchsim:", err)
		os.Exit(2)
	}
	cfgs, wls := opts.cfgs, opts.workloads

	if *traceOut != "" || *dumpCrit {
		if err := runTraced(cfgs, wls, *n, *warmup, *traceOut, *traceSample, *traceBuf, *dumpCrit, *jsonOut); err != nil {
			fmt.Fprintln(os.Stderr, "catchsim:", err)
			os.Exit(1)
		}
		return
	}

	// A cancelable context lets Ctrl-C stop the sweep cleanly: finished
	// jobs are already in the cache, undone ones come back Canceled, and
	// re-running the same command computes exactly the remainder.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	grid := runner.Grid{Configs: cfgs, Workloads: wls, Insts: *n, Warmup: *warmup}
	eng := runner.New(runner.Options{
		Workers:        *parallel,
		Cache:          runner.NewCache(opts.cacheDir),
		Batch:          opts.batch,
		Sample:         opts.sample,
		SampleInterval: opts.sampleIv,
		SampleK:        opts.sampleK,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "catchsim: "+format+"\n", args...)
		},
	})
	jrs := eng.Run(ctx, grid.Jobs())
	if opts.sample {
		fmt.Fprintf(os.Stderr, "catchsim: %d jobs sampled, %d fell back to full simulation\n",
			eng.Sampled(), eng.SampleFallbacks())
	}
	if err := runner.FirstError(jrs); err != nil {
		fmt.Fprintln(os.Stderr, err)
		if ctx.Err() != nil {
			fmt.Fprintln(os.Stderr, "catchsim:", interruptHint(opts.cacheDir))
		}
		os.Exit(1)
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(jrs); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	for i := range jrs {
		if i > 0 {
			fmt.Println()
		}
		for j := range jrs[i].Results {
			printResult(&jrs[i].Results[j])
		}
	}
}

// interruptHint tells an interrupted user how to continue. With a
// cache directory the finished jobs are on disk and the same command
// picks up the rest; without one nothing survives the process.
func interruptHint(cacheDir string) string {
	if cacheDir == "" {
		return "interrupted; no results were kept (run with -cache DIR so a re-run skips finished jobs)"
	}
	return fmt.Sprintf("interrupted; re-run the same command to continue (finished jobs are served from -cache %q)", cacheDir)
}

// workloadNames returns all workload names in listing order.
func workloadNames() []string {
	var names []string
	for _, w := range workloads.All() {
		names = append(names, w.WName)
	}
	sort.Strings(names)
	return names
}

// runTraced executes one job in-process with the telemetry tracer
// attached, then writes the Chrome trace and/or the critical-path
// table. Tracing needs a handle on the live System, so it bypasses the
// engine (and its cache: a traced run is always executed fresh).
func runTraced(cfgs []config.SystemConfig, wls []string, insts, warmup int64,
	traceOut string, sample uint64, bufEvents int, dumpCrit, jsonOut bool) error {
	if len(cfgs) != 1 || len(wls) != 1 {
		return fmt.Errorf("-trace/-dump-critpath run a single job; got %d configs × %d workloads",
			len(cfgs), len(wls))
	}
	tc := telemetry.TracerConfig{BufferEvents: bufEvents, SampleEvery: sample}
	if traceOut == "" {
		// Table-only mode: record just the critical-path walks so the
		// ring holds as many of them as possible.
		tc.Categories = telemetry.CatCritPath.Bit()
	}
	tr := telemetry.NewTracer(tc)

	w, _ := workloads.ByName(wls[0])
	sys := core.NewSystem(cfgs[0])
	sys.AttachTracer(tr)
	res := sys.RunST(w.NewGen(), insts, warmup)

	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode([]core.Result{res}); err != nil {
			return err
		}
	} else {
		printResult(&res)
		fmt.Println()
	}

	if traceOut != "" {
		f, err := os.Create(traceOut)
		if err != nil {
			return err
		}
		if err := tr.WriteChromeTrace(f); err != nil {
			_ = f.Close() // the write error is the one worth reporting
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "catchsim: wrote %d trace events to %s (%d dropped); load it at https://ui.perfetto.dev\n",
			tr.Len(), traceOut, tr.Dropped())
	}
	if dumpCrit {
		if err := telemetry.WriteCritPathTable(os.Stdout, tr.Events()); err != nil {
			return err
		}
	}
	return nil
}

func printResult(r *core.Result) {
	fmt.Printf("workload      %s (%s)\n", r.Workload, r.Category)
	fmt.Printf("config        %s\n", r.Config)
	fmt.Printf("instructions  %d\n", r.Insts)
	if s := r.Sample; s != nil {
		fmt.Printf("sampled       %d of %d insts measured (k=%d x %d)  est rel err: IPC %.2f%%  L1D miss %.2f%%  mem loads %.2f%%\n",
			s.MeasuredInsts, s.TotalInsts, s.K, s.Interval,
			100*s.RelErrIPC, 100*s.RelErrL1DMiss, 100*s.RelErrMemLoads)
	}
	fmt.Printf("cycles        %d\n", r.Cycles)
	fmt.Printf("IPC           %.4f\n", r.IPC)
	fmt.Printf("mispredicts   %d\n", r.Mispredicts)
	fmt.Printf("code stalls   %d\n", r.CodeStalls)
	fmt.Println()
	h := &r.Hier
	fmt.Printf("loads         %d  (L1 %.1f%%  L2 %.1f%%  LLC %.1f%%  mem %.1f%%)\n",
		h.Loads,
		100*stats.Ratio(h.LoadL1, h.Loads), 100*stats.Ratio(h.LoadL2, h.Loads),
		100*stats.Ratio(h.LoadLLC, h.Loads), 100*stats.Ratio(h.LoadMem, h.Loads))
	fmt.Printf("fetch lines   %d  (L1 %.1f%%  L2 %.1f%%  LLC %.1f%%  mem %.1f%%)\n",
		h.Fetches,
		100*stats.Ratio(h.FetchL1, h.Fetches), 100*stats.Ratio(h.FetchL2, h.Fetches),
		100*stats.Ratio(h.FetchLLC, h.Fetches), 100*stats.Ratio(h.FetchMem, h.Fetches))
	fmt.Printf("stores        %d  (L1 hit %.1f%%)\n", h.Stores, 100*stats.Ratio(h.StoreL1Hit, h.Stores))
	fmt.Printf("load MPKI     %.2f\n", r.LoadMPKI())
	fmt.Printf("DRAM          reads %d  writes %d  row-hit %.1f%%  avg lat %.0f cyc\n",
		r.DRAM.Reads, r.DRAM.Writes,
		100*stats.Ratio(r.DRAM.RowHits, r.DRAM.RowHits+r.DRAM.RowMisses+r.DRAM.RowConflicts),
		avg(r.DRAM.TotalReadLat, r.DRAM.Reads))
	fmt.Println()
	if r.Crit.Walks > 0 {
		fmt.Printf("criticality   walks %d  path-loads %d  recorded %d  criticalPCs %d\n",
			r.Crit.Walks, r.Crit.PathLoads, r.Crit.RecordedLoads, r.CriticalPCs)
	}
	t := &r.Tact
	if h.TactIssued > 0 || t.CodeIssued > 0 || r.CodePfIssued > 0 {
		fmt.Printf("TACT issued   %d  (filled from L2 %d, LLC %d; dropped present %d, miss %d)\n",
			h.TactIssued, h.TactFilledL2, h.TactFilledLLC, h.TactDropPresent, h.TactDropMiss)
		fmt.Printf("TACT compnts  dist1 %d  deep %d  cross %d  feeder %d  (trained: cross %d feeder %d)\n",
			t.Dist1Issued, t.DeepIssued, t.CrossIssued, t.FeederIssued, t.CrossTrained, t.FeederTrained)
		fmt.Printf("TACT used     %d\n", h.TactUsed)
		if hist := h.TactTimeliness; hist != nil && hist.Total > 0 {
			fmt.Printf("timeliness    <10%% saved: %.1f%%   10-80%%: %.1f%%   >80%%: %.1f%%\n",
				100*hist.Fraction(0), 100*hist.Fraction(1), 100*hist.Fraction(2))
		}
		fmt.Printf("code prefetch learned %d  issued %d\n", r.CodePfLearned, r.CodePfIssued)
	}
	if r.ConvertedLoads > 0 {
		fmt.Printf("converted     %d loads (%.1f%%)\n", r.ConvertedLoads, 100*r.ConvertedFrac())
	}
}

func avg(total, n uint64) float64 {
	if n == 0 {
		return 0
	}
	return float64(total) / float64(n)
}
