// Benchmarks that regenerate every table and figure of the paper's
// evaluation. Each benchmark runs the corresponding experiment driver
// on a calibrated budget and logs the table it produced, so
//
//	go test -bench=. -benchmem
//
// reproduces the whole evaluation (the bench output of a run is
// recorded in EXPERIMENTS.md against the paper's numbers). Single-run
// simulator throughput benchmarks are at the bottom.
package catch_test

import (
	"fmt"
	"testing"

	"catch/internal/cache"
	"catch/internal/config"
	"catch/internal/core"
	"catch/internal/experiments"
	"catch/internal/sample"
	"catch/internal/trace"
	"catch/internal/workloads"
)

// benchBudget is the per-figure budget used by the benchmarks: all 70
// workloads at a reduced instruction count, so each figure completes in
// tens of seconds while preserving the published shape.
func benchBudget() experiments.Budget {
	return experiments.Budget{Insts: 200_000, Warmup: 100_000, Mixes: 8}
}

func runExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		tables, err := experiments.Run(id, benchBudget())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, t := range tables {
				b.Logf("\n%s", t.Print())
			}
		}
	}
}

// BenchmarkFig1RemoveL2 regenerates Figure 1: the performance impact of
// removing the L2 at iso-capacity and iso-area (paper: -7.8% / -5.1%).
func BenchmarkFig1RemoveL2(b *testing.B) { runExperiment(b, "fig1") }

// BenchmarkFig3LatencySensitivity regenerates Figure 3: +1/2/3-cycle
// latency sensitivity per cache level (paper: L1 -2.4/-4.8/-7.2%).
func BenchmarkFig3LatencySensitivity(b *testing.B) { runExperiment(b, "fig3") }

// BenchmarkFig4CriticalityOracle regenerates Figure 4: converting ALL
// vs only non-critical hits at each level to the next level's latency.
func BenchmarkFig4CriticalityOracle(b *testing.B) { runExperiment(b, "fig4") }

// BenchmarkFig5OraclePrefetch regenerates Figure 5: the zero-time
// oracle prefetcher versus tracked critical PC count (32…2048, All,
// noL2+2048).
func BenchmarkFig5OraclePrefetch(b *testing.B) { runExperiment(b, "fig5") }

// BenchmarkFig10CATCHExclusive regenerates Figure 10: CATCH on the
// large-L2 exclusive baseline (the headline +8.4% / two-level results).
func BenchmarkFig10CATCHExclusive(b *testing.B) { runExperiment(b, "fig10") }

// BenchmarkFig11Timeliness regenerates Figure 11: TACT prefetch source
// and latency-saved buckets (paper: ~88% from LLC, >85% saving >80%).
func BenchmarkFig11Timeliness(b *testing.B) { runExperiment(b, "fig11") }

// BenchmarkFig12PerWorkload regenerates Figure 12: per-workload
// performance ratios for the noL2 and CATCH configurations.
func BenchmarkFig12PerWorkload(b *testing.B) { runExperiment(b, "fig12") }

// BenchmarkFig13TACTComponents regenerates Figure 13: the cumulative
// Code → +Cross → +Deep → +Feeder component breakdown over noL2.
func BenchmarkFig13TACTComponents(b *testing.B) { runExperiment(b, "fig13") }

// BenchmarkFig14Multiprogrammed regenerates Figure 14: 4-way MP
// weighted speedups (paper: noL2 -4.1%, noL2+CATCH +8.5%, CATCH +9.0%).
func BenchmarkFig14Multiprogrammed(b *testing.B) { runExperiment(b, "fig14") }

// BenchmarkFig15LLCLatency regenerates Figure 15: sensitivity of noL2
// and two-level CATCH to +6/+12 LLC cycles.
func BenchmarkFig15LLCLatency(b *testing.B) { runExperiment(b, "fig15") }

// BenchmarkFig16Energy regenerates Figure 16: energy savings of the
// two-level CATCH hierarchy (paper: ~11% average).
func BenchmarkFig16Energy(b *testing.B) { runExperiment(b, "fig16") }

// BenchmarkFig17Inclusive regenerates Figure 17: CATCH on the
// small-L2 inclusive baseline (paper: noL2 -5.7% … CATCH +10.3%).
func BenchmarkFig17Inclusive(b *testing.B) { runExperiment(b, "fig17") }

// BenchmarkTable1Area regenerates Table I / Fig 9: the hardware budget
// of the detector graph (~3KB) and TACT structures (~1.2KB).
func BenchmarkTable1Area(b *testing.B) { runExperiment(b, "table1") }

// BenchmarkAreaPerfTradeoff runs the extension experiment: chip-level
// cache area versus performance across hierarchy designs (§VI-E).
func BenchmarkAreaPerfTradeoff(b *testing.B) { runExperiment(b, "area") }

// --- raw simulator throughput ---------------------------------------------

func benchSim(b *testing.B, cfgName, workload string) {
	b.Helper()
	cfg, ok := experiments.ConfigByName(cfgName)
	if !ok {
		b.Fatalf("config %s", cfgName)
	}
	w, ok := workloads.ByName(workload)
	if !ok {
		b.Fatalf("workload %s", workload)
	}
	const insts = 100_000
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys := core.NewSystem(cfg)
		res := sys.RunST(w.NewGen(), insts, 20_000)
		if res.IPC <= 0 {
			b.Fatal("no progress")
		}
	}
	b.ReportMetric(float64(insts)*float64(b.N)/b.Elapsed().Seconds(), "instrs/s")
}

// BenchmarkSimBaseline measures raw simulation speed of the baseline.
func BenchmarkSimBaseline(b *testing.B) { benchSim(b, "baseline-excl", "hmmer") }

// BenchmarkSimCATCH measures simulation speed with the detector and
// TACT active (the extra cost of the CATCH hardware models).
func BenchmarkSimCATCH(b *testing.B) { benchSim(b, "catch", "hmmer") }

// BenchmarkSimMP measures 4-core multi-programmed simulation speed.
func BenchmarkSimMP(b *testing.B) {
	cfg, _ := experiments.ConfigByName("baseline-excl")
	cfg.Cores = 4
	mix := workloads.Mixes()[0]
	for i := 0; i < b.N; i++ {
		sys := core.NewSystem(cfg)
		sys.RunMP(mix.Gens(), 30_000, 10_000)
	}
}

// batchBenchConfigs is the 8-configuration LLC-latency grid used to
// compare the lock-step batch kernel against independent scalar runs.
func batchBenchConfigs(b *testing.B) []config.SystemConfig {
	b.Helper()
	base, ok := experiments.ConfigByName("baseline-excl")
	if !ok {
		b.Fatal("config baseline-excl")
	}
	cfgs := make([]config.SystemConfig, 8)
	for i := range cfgs {
		cfgs[i] = config.WithLatencyDelta(base, cache.HitLLC, int64(i),
			fmt.Sprintf("baseline-excl+llc%d", i))
	}
	return cfgs
}

const (
	batchBenchInsts  = 100_000
	batchBenchWarmup = 20_000
)

// BenchmarkSimBatch measures the lock-step kernel: 8 configurations
// stepped through one memoized hmmer trace via core.RunBatch. The
// instrs/s metric aggregates all 8 systems, so it is directly
// comparable to BenchmarkSimScalar8 below — the ratio of the two is
// the batch speedup.
func BenchmarkSimBatch(b *testing.B) {
	cfgs := batchBenchConfigs(b)
	w, _ := workloads.ByName("hmmer")
	m, err := trace.NewStore("").Materialize(&w, batchBenchInsts+batchBenchWarmup)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs, err := core.RunBatch(m, cfgs, batchBenchInsts, batchBenchWarmup)
		if err != nil {
			b.Fatal(err)
		}
		if rs[0].IPC <= 0 {
			b.Fatal("no progress")
		}
	}
	b.ReportMetric(float64(len(cfgs))*batchBenchInsts*float64(b.N)/b.Elapsed().Seconds(), "instrs/s")
}

// BenchmarkSimScalar8 runs the same 8-configuration grid as
// BenchmarkSimBatch through independent scalar RunST calls (each with
// its own generated trace) — the pre-batch execution model and the
// denominator of the batch speedup.
func BenchmarkSimScalar8(b *testing.B) {
	cfgs := batchBenchConfigs(b)
	w, _ := workloads.ByName("hmmer")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, cfg := range cfgs {
			sys := core.NewSystem(cfg)
			res := sys.RunST(w.NewGen(), batchBenchInsts, batchBenchWarmup)
			if res.IPC <= 0 {
				b.Fatal("no progress")
			}
		}
	}
	b.ReportMetric(float64(len(cfgs))*batchBenchInsts*float64(b.N)/b.Elapsed().Seconds(), "instrs/s")
}

// BenchmarkSimSampled measures the representative-interval sampling
// path in its steady-state sweep regime: the planner's profile and
// trace caches are primed, so each iteration warms a fresh system in
// place, steps the gaps and measures only the representative windows.
// The instrs/s metric counts the full budget each run estimates
// (effective simulated instructions per second); the ratio against
// BenchmarkSimCATCH is the end-to-end sampled speedup.
func BenchmarkSimSampled(b *testing.B) {
	cfg, ok := experiments.ConfigByName("catch")
	if !ok {
		b.Fatal("config catch")
	}
	w, ok := workloads.ByName("hmmer")
	if !ok {
		b.Fatal("workload hmmer")
	}
	const insts, warmup = 100_000, 20_000
	spec := sample.Spec{Interval: 2_000, K: 5}
	p := sample.NewPlanner(trace.NewStore(""), sample.NewStore(""))
	if _, err := p.Run(cfg, &w, insts, warmup, spec); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := p.Run(cfg, &w, insts, warmup, spec)
		if err != nil {
			b.Fatal(err)
		}
		if res.IPC <= 0 {
			b.Fatal("no progress")
		}
	}
	b.ReportMetric(float64(insts)*float64(b.N)/b.Elapsed().Seconds(), "instrs/s")
}

// BenchmarkSystemConstruction measures system build cost (cache
// allocation dominates).
func BenchmarkSystemConstruction(b *testing.B) {
	cfg := config.BaselineExclusive()
	for i := 0; i < b.N; i++ {
		core.NewSystem(cfg)
	}
}

// BenchmarkSystemPrewarm measures a scalar job's fixed cost before its
// first instruction: building the system and attaching the workload,
// which prewarms the LLC with the workload's declared resident regions
// (gcc: 39,360 lines into the 6.5MB two-level CATCH LLC).
func BenchmarkSystemPrewarm(b *testing.B) {
	cfg, ok := experiments.ConfigByName("nol2-6.5-catch")
	if !ok {
		b.Fatal("config nol2-6.5-catch")
	}
	w, ok := workloads.ByName("gcc")
	if !ok {
		b.Fatal("workload gcc")
	}
	gen := w.NewGen() // attaching does not consume it
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.NewSystem(cfg).Sims[0].SetWorkload(gen)
	}
}

// --- extension experiments -------------------------------------------------

// BenchmarkExtTableSize sweeps the critical-load table size (§VI-D2).
func BenchmarkExtTableSize(b *testing.B) { runExperiment(b, "ext-tablesize") }

// BenchmarkExtMSHR ablates the demand-miss fill-buffer count.
func BenchmarkExtMSHR(b *testing.B) { runExperiment(b, "ext-mshr") }

// BenchmarkExtDeepDistance ablates the deep-self distance cap.
func BenchmarkExtDeepDistance(b *testing.B) { runExperiment(b, "ext-deepdist") }

// BenchmarkExtReplacement checks CATCH orthogonality to LLC replacement.
func BenchmarkExtReplacement(b *testing.B) { runExperiment(b, "ext-replacement") }

// BenchmarkExtHeuristics compares criticality sources driving CATCH.
func BenchmarkExtHeuristics(b *testing.B) { runExperiment(b, "ext-heuristics") }

// BenchmarkExtBranchPred swaps trace-flagged speculation for a gshare
// predictor and checks the CATCH conclusion survives.
func BenchmarkExtBranchPred(b *testing.B) { runExperiment(b, "ext-branchpred") }

// BenchmarkExtSharedCode quantifies code replication vs sharing (§II).
func BenchmarkExtSharedCode(b *testing.B) { runExperiment(b, "ext-sharedcode") }
