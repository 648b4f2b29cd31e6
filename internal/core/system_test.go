package core

import (
	"reflect"
	"testing"

	"catch/internal/cache"
	"catch/internal/config"
	"catch/internal/trace"
	"catch/internal/workloads"
)

const (
	testInsts  = 40_000
	testWarmup = 20_000
)

func runWorkload(t *testing.T, name string, cfg config.SystemConfig) Result {
	t.Helper()
	w, ok := workloads.ByName(name)
	if !ok {
		t.Fatalf("unknown workload %q", name)
	}
	sys := NewSystem(cfg)
	return sys.RunST(w.NewGen(), testInsts, testWarmup)
}

func TestRunSTBasics(t *testing.T) {
	r := runWorkload(t, "hmmer", config.BaselineExclusive())
	if r.Insts != testInsts {
		t.Fatalf("insts = %d", r.Insts)
	}
	if r.IPC <= 0 || r.IPC > 4 {
		t.Fatalf("IPC %v out of range", r.IPC)
	}
	if r.Hier.Loads == 0 || r.Hier.Fetches == 0 {
		t.Fatalf("no memory activity: %+v", r.Hier)
	}
	if r.Workload != "hmmer" || r.Category != "ISPEC" || r.Config != "baseline-excl" {
		t.Fatalf("metadata wrong: %+v", r)
	}
	if !r.HasL2 {
		t.Fatal("baseline result lost its L2 stats")
	}
}

func TestRunDeterministic(t *testing.T) {
	a := runWorkload(t, "mcf", config.BaselineExclusive())
	b := runWorkload(t, "mcf", config.BaselineExclusive())
	if a.Cycles != b.Cycles || a.IPC != b.IPC {
		t.Fatalf("nondeterministic runs: %d vs %d cycles", a.Cycles, b.Cycles)
	}
	if a.Hier != b.Hier {
		t.Fatalf("hierarchy stats diverged")
	}
}

func TestNoL2ConfigHasNoL2(t *testing.T) {
	cfg := config.NoL2(config.BaselineExclusive(), 6656*config.KB, 13, "nol2")
	r := runWorkload(t, "hmmer", cfg)
	if r.HasL2 {
		t.Fatal("noL2 run reported L2 stats")
	}
	if r.Hier.LoadL2 != 0 {
		t.Fatal("loads served from a nonexistent L2")
	}
}

func TestL2RemovalHurtsHotL2Workload(t *testing.T) {
	base := runWorkload(t, "hmmer", config.BaselineExclusive())
	nol2 := runWorkload(t, "hmmer", config.NoL2(config.BaselineExclusive(), 6656*config.KB, 13, "nol2"))
	if nol2.IPC >= base.IPC {
		t.Fatalf("removing L2 did not hurt hmmer: %.3f vs %.3f", nol2.IPC, base.IPC)
	}
}

func TestCATCHRecoversHotL2Workload(t *testing.T) {
	nol2cfg := config.NoL2(config.BaselineExclusive(), 6656*config.KB, 13, "nol2")
	nol2 := runWorkload(t, "hmmer", nol2cfg)
	catch := runWorkload(t, "hmmer", config.WithCATCH(nol2cfg, "nol2-catch"))
	if catch.IPC <= nol2.IPC*1.2 {
		t.Fatalf("CATCH did not recover hmmer: %.3f vs %.3f", catch.IPC, nol2.IPC)
	}
	if catch.Hier.TactIssued == 0 || catch.Hier.TactUsed == 0 {
		t.Fatalf("TACT inactive: %+v", catch.Hier)
	}
}

func TestCATCHOnBaselineHelps(t *testing.T) {
	base := runWorkload(t, "mcf", config.BaselineExclusive())
	catch := runWorkload(t, "mcf", config.WithCATCH(config.BaselineExclusive(), "catch"))
	if catch.IPC <= base.IPC {
		t.Fatalf("CATCH on baseline did not help mcf: %.3f vs %.3f", catch.IPC, base.IPC)
	}
	if catch.Tact.FeederTrained == 0 {
		t.Fatal("mcf feeder association not trained")
	}
}

func TestChaseResistsCATCH(t *testing.T) {
	// namd-like chase loads cannot be prefetched: CATCH gains are small.
	nol2cfg := config.NoL2(config.BaselineExclusive(), 6656*config.KB, 13, "nol2")
	plain := runWorkload(t, "namd", nol2cfg)
	catch := runWorkload(t, "namd", config.WithCATCH(nol2cfg, "nol2-catch"))
	if catch.IPC > plain.IPC*1.10 {
		t.Fatalf("pointer chase unexpectedly accelerated: %.3f vs %.3f", catch.IPC, plain.IPC)
	}
}

func TestInclusiveBaselineRuns(t *testing.T) {
	r := runWorkload(t, "tpcc", config.BaselineInclusive())
	if r.IPC <= 0 {
		t.Fatal("inclusive baseline produced no progress")
	}
}

func TestOraclePrefetchBeatsBaseline(t *testing.T) {
	base := config.BaselineExclusive()
	base.BaselineStride = false
	base.BaselineStream = false
	w, _ := workloads.ByName("hmmer")
	plain := NewSystem(base).RunST(w.NewGen(), testInsts, testWarmup)
	oracle := NewSystem(config.WithOraclePrefetch(config.BaselineExclusive(), 32, "oracle")).
		RunST(w.NewGen(), testInsts, testWarmup)
	if oracle.IPC <= plain.IPC {
		t.Fatalf("oracle prefetch did not help: %.3f vs %.3f", oracle.IPC, plain.IPC)
	}
	if oracle.Hier.OraclePromotions == 0 {
		t.Fatal("oracle never promoted")
	}
}

func TestConvertSpecInflatesLatency(t *testing.T) {
	spec := config.ConvertSpec{From: cache.HitL1, ToLat: 15}
	cfg := config.WithConvert(config.BaselineExclusive(), spec, 0, "convert")
	conv := runWorkload(t, "hmmer", cfg)
	base := runWorkload(t, "hmmer", config.BaselineExclusive())
	if conv.IPC >= base.IPC {
		t.Fatalf("converting ALL L1 hits to L2 latency did not hurt: %.3f vs %.3f", conv.IPC, base.IPC)
	}
	if conv.ConvertedLoads == 0 {
		t.Fatal("no loads converted")
	}
}

func TestConvertNonCriticalHurtsLess(t *testing.T) {
	all := config.WithConvert(config.BaselineExclusive(),
		config.ConvertSpec{From: cache.HitL2, ToLat: 40}, 0, "conv-all")
	ncr := config.WithConvert(config.BaselineExclusive(),
		config.ConvertSpec{From: cache.HitL2, ToLat: 40, OnlyNonCritical: true},
		2 /* MaskL2 */, "conv-ncrit")
	ra := runWorkload(t, "hmmer", all)
	rn := runWorkload(t, "hmmer", ncr)
	if rn.IPC < ra.IPC {
		t.Fatalf("non-critical conversion hurt more than converting all: %.3f vs %.3f", rn.IPC, ra.IPC)
	}
}

// latencyStepWorkloads is TestLatencyDeltaHurts's workload subset:
// every category, and eight different kernel archetypes (an L2-resident
// loop, critical gathers, many critical loads, an LLC-sized hash, a
// pointer chase, a streaming stencil, the server mix and the client
// mix).
var latencyStepWorkloads = []string{"hmmer", "mcf", "povray", "sphinx3", "bfs", "hplinpack", "tpcc", "sysmark-excel"}

// TestLatencyDeltaHurts runs the premise of the paper's latency study
// as a table: a slower level never speeds a core up. For each config
// of the study (baseline-excl and nol2-6.5, each with and without the
// baseline prefetchers, nol2-6.5-catch and catch) and each cache level
// it has, raising that level's hit latency +0 -> +1 -> +2 -> +3 cycles
// must never lower the cycles a workload takes, at 20k instructions
// after 10k. A probe over all 70 workloads at that budget found no
// violation in 3,150 steps. And +3 cycles of L1 latency must strictly
// slow hmmer on the baseline.
func TestLatencyDeltaHurts(t *testing.T) {
	const insts, warmup = 20_000, 10_000
	base := config.BaselineExclusive()
	nol2 := config.NoL2(base, 6656*config.KB, 13, "nol2-6.5")
	noPrefetch := func(c config.SystemConfig) config.SystemConfig {
		c.Name += "-nopf"
		c.BaselineStride, c.BaselineStream = false, false
		return c
	}
	configs := []config.SystemConfig{
		base, noPrefetch(base), nol2, noPrefetch(nol2),
		config.WithCATCH(nol2, "nol2-6.5-catch"),
		config.WithCATCH(base, "catch"),
	}
	for _, name := range latencyStepWorkloads {
		w, ok := workloads.ByName(name)
		if !ok {
			t.Fatalf("unknown workload %q", name)
		}
		cycles := func(cfg config.SystemConfig) int64 {
			return NewSystem(cfg).RunST(w.NewGen(), insts, warmup).Cycles
		}
		for _, cfg := range configs {
			levels := []cache.HitLevel{cache.HitL1, cache.HitLLC}
			if cfg.HasL2 {
				levels = []cache.HitLevel{cache.HitL1, cache.HitL2, cache.HitLLC}
			}
			at0 := cycles(cfg)
			for _, level := range levels {
				prev := at0
				for delta := int64(1); delta <= 3; delta++ {
					got := cycles(config.WithLatencyDelta(cfg, level, delta, cfg.Name))
					if got < prev {
						t.Errorf("%s on %s: %s +%d cycles of latency took %d cycles, fewer than %d at +%d",
							name, cfg.Name, level, delta, got, prev, delta-1)
					}
					prev = got
				}
			}
		}
	}

	fast := runWorkload(t, "hmmer", base)
	slow := runWorkload(t, "hmmer", config.WithLatencyDelta(base, cache.HitL1, 3, "l1+3"))
	if slow.IPC >= fast.IPC {
		t.Fatalf("+3 cycles of L1 latency did not hurt: %.3f vs %.3f", slow.IPC, fast.IPC)
	}
}

func TestRunMPProducesPerCoreResults(t *testing.T) {
	cfg := config.BaselineExclusive()
	cfg.Cores = 4
	mixes := workloads.Mixes()
	sys := NewSystem(cfg)
	rs := sys.RunMP(mixes[0].Gens(), 20_000, 8_000)
	if len(rs) != 4 {
		t.Fatalf("got %d results", len(rs))
	}
	for i, r := range rs {
		if r.Insts != 20_000 {
			t.Fatalf("core %d insts = %d", i, r.Insts)
		}
		if r.IPC <= 0 {
			t.Fatalf("core %d made no progress", i)
		}
	}
}

func TestRunMPResetsSharedStatsAtWarmup(t *testing.T) {
	// Two runs over the identical instruction stream: one measures all
	// W+N instructions, the other warms up for W and measures N. The
	// shared LLC/DRAM/ring counters of the warmed run must exclude the
	// warmup traffic, so they come out strictly smaller (they used to
	// be equal — shared stats were never reset at the warmup boundary).
	const w, n = 12_000, 20_000
	mix := workloads.Mixes()[0]
	cfg := config.BaselineExclusive()
	cfg.Cores = 4

	full := NewSystem(cfg).RunMP(mix.Gens(), w+n, 0)
	warmed := NewSystem(cfg).RunMP(mix.Gens(), n, w)

	if warmed[0].LLC.Lookups == 0 {
		t.Fatal("no LLC activity in measurement window")
	}
	if warmed[0].LLC.Lookups >= full[0].LLC.Lookups {
		t.Fatalf("warmup traffic still in shared LLC stats: warmed %d >= full %d",
			warmed[0].LLC.Lookups, full[0].LLC.Lookups)
	}
	if warmed[0].Ring.Flits >= full[0].Ring.Flits {
		t.Fatalf("warmup traffic still in ring stats: warmed %d >= full %d",
			warmed[0].Ring.Flits, full[0].Ring.Flits)
	}
	// All cores snapshot the same shared counters.
	for i := 1; i < 4; i++ {
		if warmed[i].LLC != warmed[0].LLC {
			t.Fatalf("core %d reports different shared LLC stats", i)
		}
	}
}

// TestRunMPOneCoreMatchesRunST pins RunMP's warmup boundary to
// RunST's: on one core the two drivers must return deeply equal
// results at every warmup, including 0, where both measure from the
// first instruction.
func TestRunMPOneCoreMatchesRunST(t *testing.T) {
	const insts = 10_000
	w, _ := workloads.ByName("mcf")
	base := config.BaselineExclusive()
	for _, cfg := range []config.SystemConfig{base, config.WithCATCH(base, "catch")} {
		for _, warmup := range []int64{0, 1, 5_000} {
			mp := NewSystem(cfg).RunMP([]trace.Generator{w.NewGen()}, insts, warmup)
			st := NewSystem(cfg).RunST(w.NewGen(), insts, warmup)
			if !reflect.DeepEqual(mp[0], st) {
				t.Errorf("%s, warmup %d: RunMP differs from RunST (cycles %d vs %d)",
					cfg.Name, warmup, mp[0].Cycles, st.Cycles)
			}
		}
	}
}

// TestRunMPPrewarmMatchesPerLine pins RunMP's single prewarm pass over
// all cores: on 4-core mixes it must leave the shared LLC, once every
// set is placed, deeply equal to prewarming each core's regions line by
// line, probe then fill, in core order.
func TestRunMPPrewarmMatchesPerLine(t *testing.T) {
	mixes := workloads.Mixes()
	for _, base := range []config.SystemConfig{config.BaselineExclusive(), config.BaselineInclusive()} {
		cfg := base
		cfg.Cores = 4
		for _, mix := range []workloads.Mix{mixes[0], mixes[len(mixes)-1]} {
			got := NewSystem(cfg)
			got.setWorkloads(mix.Gens())
			got.LLC.PlacePrewarm()

			want := NewSystem(cfg)
			for i, gen := range mix.Gens() {
				c := want.Sims[i]
				for _, r := range gen.(trace.Prewarmer).PrewarmRegions() {
					for a := r.Base; a < r.Base+r.Size; a += trace.CacheLineSize {
						la := cache.LineAddr(c.xlat(a))
						if want.LLC.Probe(la) == nil {
							want.LLC.Fill(la, 0, 0, false, cache.PfNone)
						}
					}
				}
			}
			if want.LLC.Stats.Fills == 0 {
				t.Fatalf("%s/%s: the reference prewarmed nothing", cfg.Name, mix.Name)
			}
			if !reflect.DeepEqual(got.LLC, want.LLC) {
				t.Errorf("%s/%s: RunMP's prewarm differs from per-core per-line prewarms (fills %d vs %d, evictions %d vs %d)",
					cfg.Name, mix.Name, got.LLC.Stats.Fills, want.LLC.Stats.Fills,
					got.LLC.Stats.Evictions, want.LLC.Stats.Evictions)
			}
		}
	}
}

func TestMPCoresDoNotAlias(t *testing.T) {
	cfg := config.BaselineExclusive()
	cfg.Cores = 2
	sys := NewSystem(cfg)
	a := sys.Sims[0].xlat(0x1000)
	b := sys.Sims[1].xlat(0x1000)
	if a == b {
		t.Fatal("cores share physical addresses")
	}
}

func TestSharedLLCContention(t *testing.T) {
	// The same workload run alone vs 4-way RATE must not speed up.
	w, _ := workloads.ByName("sphinx3")
	solo := config.BaselineExclusive()
	soloR := NewSystem(solo).RunST(w.NewGen(), 20_000, 8_000)

	mp := config.BaselineExclusive()
	mp.Cores = 4
	gens := []trace.Generator{w.NewGen(), w.NewGen(), w.NewGen(), w.NewGen()}
	rs := NewSystem(mp).RunMP(gens, 20_000, 8_000)
	if rs[0].IPC > soloR.IPC*1.05 {
		t.Fatalf("shared LLC contention absent: mp %.3f vs solo %.3f", rs[0].IPC, soloR.IPC)
	}
}

func TestResultHelpers(t *testing.T) {
	r := runWorkload(t, "hmmer", config.BaselineExclusive())
	if hr := r.L1LoadHitRate(); hr <= 0 || hr > 1 {
		t.Fatalf("L1 hit rate %v", hr)
	}
	if r.CacheTraffic() == 0 {
		t.Fatal("cache traffic zero")
	}
	if r.LoadMPKI() < 0 {
		t.Fatal("negative MPKI")
	}
}

func TestBaselinePrefetchersActive(t *testing.T) {
	r := runWorkload(t, "libquantum", config.BaselineExclusive())
	if r.Hier.StridePfIssued == 0 {
		t.Fatal("stride prefetcher inactive on streaming workload")
	}
	if r.Hier.StreamPfIssued == 0 {
		t.Fatal("stream prefetcher inactive on streaming workload")
	}
}

func TestCodePrefetcherActiveOnServer(t *testing.T) {
	cfg := config.WithCATCH(config.NoL2(config.BaselineExclusive(), 6656*config.KB, 13, "x"), "nol2-catch")
	r := runWorkload(t, "tpcc", cfg)
	if r.CodePfIssued == 0 {
		t.Fatal("code run-ahead inactive on server workload")
	}
}
