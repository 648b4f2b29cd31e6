package sample

import (
	"fmt"

	"catch/internal/config"
	"catch/internal/core"
	"catch/internal/trace"
)

// FeatureDim is the length of one interval's feature vector.
const FeatureDim = 12

// Profile is a workload's measurement region described as per-interval
// feature vectors. The features are dimensionless rates drawn from the
// telemetry the simulator already maintains (no new hot-path state):
//
//	 0  CPI
//	 1  demand-load L1 miss fraction
//	 2  demand-load LLC-served fraction
//	 3  demand-load memory-served fraction
//	 4  fetch L1 miss fraction
//	 5  store miss fraction
//	 6  branch mispredicts per instruction
//	 7  code-stall cycles per cycle
//	 8  MSHR-stall cycles per cycle
//	 9  DRAM row-hit fraction
//	10  TACT timely-prefetch fraction (>80% latency saved)
//	11  criticality-recorded loads per instruction
type Profile struct {
	Workload string
	Interval int64
	Features [][]float64
}

// profileConfig is the single canonical microarchitecture every
// workload is profiled under, whatever configs the sweep itself spans:
// one profile (and one clustering) is then shared by every config of a
// grid, and the cluster choice can never skew a comparison between two
// configs — they simulate the same representative intervals. Full
// CATCH hardware is enabled so criticality and timeliness phases are
// visible to the feature vector.
func profileConfig() config.SystemConfig {
	cfg := config.WithCATCH(config.BaselineExclusive(), "sample-profile")
	cfg.Tact.EnableCode = true
	cfg.Tact.EnableCross = true
	cfg.Tact.EnableDeep = true
	cfg.Tact.EnableFeeder = true
	return cfg
}

// ProfileWorkload simulates m's measurement region once under the
// canonical profile config and describes each interval as a feature
// vector. m must hold warmup+insts instructions and interval must
// divide insts evenly.
func ProfileWorkload(m *trace.Materialized, insts, warmup, interval int64) (*Profile, error) {
	if interval <= 0 || insts <= 0 || insts%interval != 0 {
		return nil, fmt.Errorf("sample: interval %d must evenly divide insts %d", interval, insts)
	}
	n := int(insts / interval)
	sys := core.NewSystem(profileConfig())
	sys.WarmupST(m.NewReplay(), warmup)

	backing := make([]float64, n*FeatureDim)
	features := make([][]float64, n)
	for i := 0; i < n; i++ {
		base := sys.CaptureCumulative()
		win := sys.BeginMeasure()
		sys.StepST(interval)
		r := sys.EndMeasureDelta(win, base)
		v := backing[i*FeatureDim : (i+1)*FeatureDim : (i+1)*FeatureDim]
		featurize(&r, v)
		features[i] = v
	}
	sys.Release()
	return &Profile{Workload: m.Name(), Interval: interval, Features: features}, nil
}

// featurize fills v with the interval result's feature vector.
func featurize(r *core.Result, v []float64) {
	cycles := float64(r.Cycles)
	insts := float64(r.Insts)
	v[0] = ratio(cycles, insts)
	v[1] = 1 - ratio(float64(r.Hier.LoadL1), float64(r.Hier.Loads))
	v[2] = ratio(float64(r.Hier.LoadLLC), float64(r.Hier.Loads))
	v[3] = ratio(float64(r.Hier.LoadMem), float64(r.Hier.Loads))
	v[4] = 1 - ratio(float64(r.Hier.FetchL1), float64(r.Hier.Fetches))
	v[5] = ratio(float64(r.Hier.StoreMiss), float64(r.Hier.Stores))
	v[6] = ratio(float64(r.Mispredicts), insts)
	v[7] = ratio(float64(r.CodeStalls), cycles)
	v[8] = ratio(float64(r.Hier.MSHRStallCycles), cycles)
	rows := float64(r.DRAM.RowHits + r.DRAM.RowMisses + r.DRAM.RowConflicts)
	v[9] = ratio(float64(r.DRAM.RowHits), rows)
	if h := r.Hier.TactTimeliness; h != nil && h.Total > 0 && len(h.Counts) > 0 {
		v[10] = float64(h.Counts[len(h.Counts)-1]) / float64(h.Total)
	}
	v[11] = ratio(float64(r.Crit.RecordedLoads), insts)
}

// ratio is a zero-guarded division.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
