package experiments

import (
	"context"
	"runtime"
	"sync"

	"catch/internal/config"
	"catch/internal/core"
	"catch/internal/runner"
	"catch/internal/workloads"
)

// All experiment drivers execute their simulations through a shared
// runner.Engine: the (config × workload) grid shards across a worker
// pool and identical jobs (the baseline runs that several figures
// share, or anything already computed in a previous process when a
// cache directory is configured) are served from the content-addressed
// result cache instead of being re-simulated.
var (
	engMu   sync.Mutex
	eng     *runner.Engine
	execCtx context.Context
)

// UseEngine routes all experiment drivers through e (cmd/catchexp
// installs the engine built from its -parallel/-cache flags).
func UseEngine(e *runner.Engine) {
	engMu.Lock()
	defer engMu.Unlock()
	eng = e
}

// UseContext makes every experiment driver run its jobs under ctx, so
// a command-line interrupt cancels the sweep instead of orphaning it
// (cmd/catchexp installs its signal context; undone jobs come back
// Canceled, and a re-run over the same cache computes exactly the
// remainder).
func UseContext(ctx context.Context) {
	engMu.Lock()
	defer engMu.Unlock()
	execCtx = ctx
}

// execContext returns the installed context, or Background.
func execContext() context.Context {
	engMu.Lock()
	defer engMu.Unlock()
	if execCtx == nil {
		return context.Background()
	}
	return execCtx
}

// Engine returns the active engine, lazily creating a default one
// (GOMAXPROCS workers, in-memory cache) on first use.
func Engine() *runner.Engine {
	engMu.Lock()
	defer engMu.Unlock()
	if eng == nil {
		eng = runner.New(runner.Options{
			Workers: runtime.GOMAXPROCS(0),
			Cache:   runner.NewCache(""),
		})
	}
	return eng
}

// runJobs executes jobs and concatenates their results in job order.
// Drivers construct every job from the static registry, so a failure
// here is a programming error, matching the panics the direct-call
// path used for unknown names.
func runJobs(jobs []runner.Job) []core.Result {
	rs, err := runner.Flatten(Engine().Run(execContext(), jobs))
	if err != nil {
		panic("experiments: " + err.Error())
	}
	return rs
}

// runSys runs every study workload on an explicit configuration.
func runSys(cfg config.SystemConfig, b Budget) []core.Result {
	wls := b.workloads()
	jobs := make([]runner.Job, 0, len(wls))
	for _, w := range wls {
		jobs = append(jobs, runner.STJob(cfg, w.WName, b.Insts, b.Warmup))
	}
	return runJobs(jobs)
}

// runGrid runs every study workload on each configuration through a
// single engine submission and returns per-config result slices. One
// submission (rather than one per config) lets a batching engine group
// the configurations sharing a workload into lock-step units, and gives
// the worker pool the whole grid to spread at once.
func runGrid(cfgs []config.SystemConfig, b Budget) [][]core.Result {
	wls := b.workloads()
	jobs := make([]runner.Job, 0, len(cfgs)*len(wls))
	for _, cfg := range cfgs {
		for _, w := range wls {
			jobs = append(jobs, runner.STJob(cfg, w.WName, b.Insts, b.Warmup))
		}
	}
	flat := runJobs(jobs)
	out := make([][]core.Result, len(cfgs))
	for k := range cfgs {
		out[k] = flat[k*len(wls) : (k+1)*len(wls)]
	}
	return out
}

// runConfig runs every study workload on one named configuration.
func runConfig(cfgName string, b Budget) []core.Result {
	cfg, ok := ConfigByName(cfgName)
	if !ok {
		panic("experiments: unknown config " + cfgName)
	}
	return runSys(cfg, b)
}

// runMixes runs one multi-programmed job per mix on cfg, returning the
// per-core results of each mix in order.
func runMixes(cfg config.SystemConfig, mixes []workloads.Mix, b Budget) [][]core.Result {
	jobs := make([]runner.Job, 0, len(mixes))
	for i := range mixes {
		jobs = append(jobs, runner.MPJob(cfg, mixNames(&mixes[i]), b.Insts, b.Warmup))
	}
	out := Engine().Run(execContext(), jobs)
	if err := runner.FirstError(out); err != nil {
		panic("experiments: " + err.Error())
	}
	rs := make([][]core.Result, len(out))
	for i := range out {
		rs[i] = out[i].Results
	}
	return rs
}

// runAloneIPC measures each named workload alone on cfg and returns
// its IPC (the fixed single-thread reference used by weighted-speedup
// metrics).
func runAloneIPC(cfg config.SystemConfig, names []string, b Budget) map[string]float64 {
	jobs := make([]runner.Job, 0, len(names))
	for _, name := range names {
		jobs = append(jobs, runner.STJob(cfg, name, b.Insts, b.Warmup))
	}
	rs := runJobs(jobs)
	out := make(map[string]float64, len(rs))
	for i, name := range names {
		out[name] = rs[i].IPC
	}
	return out
}

func mixNames(m *workloads.Mix) []string {
	names := make([]string, len(m.Parts))
	for k := range m.Parts {
		names[k] = m.Parts[k].WName
	}
	return names
}
