package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"catch/internal/config"
	"catch/internal/experiments"
	"catch/internal/runner"
	"catch/internal/workloads"
)

// Sweep sizing. The ST budget divides by runner.DefaultSampleIntervals
// so the sampled pass stamps every ST job; the mixes run at a smaller
// per-core budget because each simulates four cores.
//
// Ten of each category's fourteen workloads keep the grid's cost close
// to the same for every seed. The sampled pass holds a warm snapshot per
// job in memory, so it runs on a sub-grid of two workloads per category.
const (
	sweepInsts         = 6_000
	sweepWarmup        = 3_000
	sweepPerCat        = 10
	sweepSampledPerCat = 2
	sweepMixes         = 2
	sweepMPInsts       = 3_000
	sweepMPWarmup      = 1_500
	sweepWarmReps      = 5 // disk-warm passes per cycle
	sweepSampleGap     = 3 // the sampled pass runs every third cycle
	sweepSetupReps     = 5
)

// fig13Configs is the fig13 ladder: the noL2 reference, then CATCH with
// the TACT components enabled cumulatively.
func fig13Configs() []config.SystemConfig {
	noL2, _ := experiments.ConfigByName("nol2-6.5")
	steps := []struct {
		label                     string
		code, cross, deep, feeder bool
	}{
		{"Code", true, false, false, false},
		{"+CROSS", true, true, false, false},
		{"+Deep", true, true, true, false},
		{"+Feeder", true, true, true, true},
	}
	cfgs := []config.SystemConfig{noL2}
	for _, s := range steps {
		cfg := config.WithCATCH(noL2, "nol2-catch-"+s.label)
		cfg.Tact.EnableCode = s.code
		cfg.Tact.EnableCross = s.cross
		cfg.Tact.EnableDeep = s.deep
		cfg.Tact.EnableFeeder = s.feeder
		cfgs = append(cfgs, cfg)
	}
	return cfgs
}

// sweepJobs draws the seeded grid: sweepPerCat study workloads from
// every category on each fig13 config, then sweepMixes four-core mixes
// on baseline-excl and catch. It also returns the indices of the
// sampled sub-grid: the ST jobs of the first sweepSampledPerCat
// workloads drawn from each category.
func sweepJobs(seed uint64) (jobs []runner.Job, sampled []int) {
	rng := newSplitmix(seed ^ 0x5157ee9)
	byCat := workloads.ByCategory()
	var names []string
	for _, cat := range sortedKeys(byCat) {
		ws := byCat[cat]
		for _, i := range rng.perm(len(ws))[:sweepPerCat] {
			names = append(names, ws[i].WName)
		}
	}
	for _, cfg := range fig13Configs() {
		for k, name := range names {
			if k%sweepPerCat < sweepSampledPerCat {
				sampled = append(sampled, len(jobs))
			}
			jobs = append(jobs, runner.STJob(cfg, name, sweepInsts, sweepWarmup))
		}
	}
	mixes := workloads.Mixes()
	picks := rng.perm(len(mixes))[:sweepMixes]
	for _, cfgName := range []string{"baseline-excl", "catch"} {
		cfg, _ := experiments.ConfigByName(cfgName)
		for _, i := range picks {
			parts := make([]string, len(mixes[i].Parts))
			for k := range mixes[i].Parts {
				parts[k] = mixes[i].Parts[k].WName
			}
			jobs = append(jobs, runner.MPJob(cfg, parts, sweepMPInsts, sweepMPWarmup))
		}
	}
	return jobs, sampled
}

// digest hashes a pass's Flatten output; equal digests mean
// byte-identical simulated statistics.
//
//catchlint:ignore key-coverage a fingerprint of results for identity checks, never a cache key
func digest(out []runner.JobResult) (string, error) {
	rs, err := runner.Flatten(out)
	if err != nil {
		return "", err
	}
	raw, err := json.Marshal(rs)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:16]), nil
}

// timedPass resolves jobs through a fresh engine and returns the
// results, the wall clock and the engine (for its counters). The heap
// is collected first, so no pass pays for an earlier pass's garbage.
func timedPass(opts runner.Options, jobs []runner.Job) ([]runner.JobResult, time.Duration, *runner.Engine) {
	runtime.GC()
	eng := runner.New(opts)
	t0 := time.Now()
	out := eng.Run(context.Background(), jobs)
	return out, time.Since(t0), eng
}

// sweepGrid is the seeded grid and its sampled sub-grid.
type sweepGrid struct {
	jobs, sub []runner.Job
	subIdx    []int // sub[k] is jobs[subIdx[k]]
}

// sweepSetup draws, validates and keys the seeded grid: the work every
// pass needs before its first simulation.
func sweepSetup(seed uint64) (sweepGrid, error) {
	var g sweepGrid
	g.jobs, g.subIdx = sweepJobs(seed)
	for i := range g.jobs {
		if err := g.jobs[i].Validate(); err != nil {
			return g, err
		}
		_ = g.jobs[i].Key()
	}
	for _, i := range g.subIdx {
		g.sub = append(g.sub, g.jobs[i])
	}
	return g, nil
}

// runSweep resolves the seeded grid four ways — scalar cold, disk-warm,
// batch cold and, every sweepSampleGap cycles, sampled cold (empty
// planner) on the sub-grid — each through a fresh engine with one
// worker per CPU, until the window is spent.
func runSweep(r *run) error {
	g, setupS, err := medianSetup(sweepSetupReps, func() (sweepGrid, error) { return sweepSetup(r.seed) }, func(sweepGrid) {})
	if err != nil {
		return err
	}
	jobs := g.jobs
	st := 0
	for i := range jobs {
		if len(jobs[i].Workloads) == 1 {
			st++
		}
	}
	fmt.Printf("sweep grid: %d jobs (%d ST over %d configs, %d MP); sampled sub-grid %d jobs\n",
		len(jobs), st, len(fig13Configs()), len(jobs)-st, len(g.sub))

	var scalarMs, batchMs, sampledMs, warmMs []float64
	var ref string
	worstErr := 0.0
	deadline := time.Now().Add(r.window)
	for cycle := 0; cycle == 0 || time.Now().Before(deadline); cycle++ {
		// The cold passes run uncached, so shared-disk noise stays out of
		// the compute timings; the scalar results are then persisted,
		// untimed, as the disk cache the warm passes read.
		dir := filepath.Join(r.dir, fmt.Sprintf("sweep-%d", cycle))
		scalar, d, _ := timedPass(runner.Options{Workers: r.workers}, jobs)
		scalarMs = append(scalarMs, ms(d))
		r.checkPass("scalar", scalar, &ref)
		disk := runner.NewCache(dir)
		for i := range scalar {
			disk.PutDisk(scalar[i].Key, scalar[i].Results)
		}

		for k := 0; k < sweepWarmReps; k++ {
			warm, d, eng := timedPass(runner.Options{Workers: r.workers, Cache: runner.NewCache(dir)}, jobs)
			warmMs = append(warmMs, ms(d))
			r.checkPass("warm", warm, &ref)
			r.expect(eng.Executed() == 0, "warm pass executed %d simulations, want 0", eng.Executed())
		}

		batch, d, eng := timedPass(runner.Options{Workers: r.workers, Batch: true}, jobs)
		batchMs = append(batchMs, ms(d))
		r.checkPass("batch", batch, &ref)
		r.expect(eng.Batched() == uint64(st) && eng.BatchFallbacks() == 0,
			"batch pass: %d of %d ST jobs batched, %d fallbacks", eng.Batched(), st, eng.BatchFallbacks())

		if cycle%sweepSampleGap == 0 {
			sampled, d, eng := timedPass(runner.Options{Workers: r.workers, Sample: true}, g.sub)
			sampledMs = append(sampledMs, ms(d))
			r.expect(eng.Sampled() == uint64(len(g.sub)) && eng.SampleFallbacks() == 0,
				"sampled pass: %d of %d jobs sampled, %d fallbacks", eng.Sampled(), len(g.sub), eng.SampleFallbacks())
			for k, i := range g.subIdx {
				ok := r.expect(sampled[k].Status == runner.StatusOK && len(sampled[k].Results) == 1,
					"sampled job %d: status %s %s", i, sampled[k].Status, sampled[k].Err)
				if ok && scalar[i].Status == runner.StatusOK {
					exact, est := scalar[i].Results[0].IPC, sampled[k].Results[0].IPC
					worstErr = math.Max(worstErr, 100*math.Abs(est-exact)/exact)
				}
			}
		}
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
	}

	fmt.Printf("digest sweep %s\n", ref)
	r.print("sweep_s", median(scalarMs)/1000, "s", len(scalarMs))
	r.print("sweep_batch_s", median(batchMs)/1000, "s", len(batchMs))
	r.print("sweep_sampled_s", median(sampledMs)/1000, "s", len(sampledMs))
	r.print("sweep_warm_s", median(warmMs)/1000, "s", len(warmMs))
	r.print("sampled_err_pct", worstErr, "%", len(g.sub))
	r.report("setup_s", setupS, "s", sweepSetupReps)
	r.report("compute_ms", median(scalarMs), "ms", len(scalarMs))
	r.report("cached_ms", median(warmMs), "ms", len(warmMs))
	r.report("cached_p90_ms", at(warmMs, 0.9), "ms", len(warmMs))
	return nil
}

// checkPass verifies every job of a pass succeeded and that its digest
// matches the first pass's.
func (r *run) checkPass(name string, out []runner.JobResult, ref *string) {
	for i := range out {
		r.expect(out[i].Status == runner.StatusOK, "%s job %d: status %s %s", name, i, out[i].Status, out[i].Err)
	}
	d, err := digest(out)
	if !r.expect(err == nil, "%s digest: %v", name, err) {
		return
	}
	if *ref == "" {
		*ref = d
	}
	r.expect(d == *ref, "%s digest %s differs from %s", name, d, *ref)
}

// median is the nearest-rank median (0 for no samples).
func median(xs []float64) float64 { return summarize(xs).P50 }
