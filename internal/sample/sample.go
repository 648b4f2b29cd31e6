// Package sample is the representative-interval sampling subsystem:
// it profiles a workload's measurement region into fixed-length
// intervals, clusters the intervals with a small deterministic k-means,
// simulates only one representative per cluster on a system warmed in
// place, and extrapolates full-run statistics with per-metric error
// bars. Sweeps that share a (workload, budgets, interval) tuple share
// one profile.
package sample

import (
	"fmt"
	"sort"

	"catch/internal/config"
	"catch/internal/core"
	"catch/internal/memo"
	"catch/internal/stats"
	"catch/internal/trace"
)

// Spec parameterizes sampled simulation of one job.
type Spec struct {
	// Interval is the fixed interval length in instructions; it must
	// evenly divide the measured instruction budget.
	Interval int64
	// K is the cluster count — the number of representative intervals
	// actually simulated per (config, workload) pair.
	K int
}

// Validate checks the spec against a measured instruction budget.
func (sp Spec) Validate(insts int64) error {
	if sp.Interval <= 0 {
		return fmt.Errorf("sample: interval must be positive, got %d", sp.Interval)
	}
	if insts <= 0 || insts%sp.Interval != 0 {
		return fmt.Errorf("sample: interval %d must evenly divide insts %d", sp.Interval, insts)
	}
	n := insts / sp.Interval
	if sp.K <= 0 {
		return fmt.Errorf("sample: k must be positive, got %d", sp.K)
	}
	if int64(sp.K) > n {
		return fmt.Errorf("sample: k %d exceeds the %d intervals of insts %d at interval %d",
			sp.K, n, insts, sp.Interval)
	}
	return nil
}

// profileKey identifies one cached workload profile. The profile is a
// pure function of the stream (name, seed, budgets) and the interval
// length — the sweep's configs do not appear, which is what lets one
// profile serve a whole grid.
type profileKey struct {
	Name     string
	Seed     uint64
	Insts    int64
	Warmup   int64
	Interval int64
}

// PlannerStats counts planner activity.
type PlannerStats struct {
	Profiled         uint64 `json:"profiled"`
	ProfileHits      uint64 `json:"profileHits"`
	ProfileCoalesced uint64 `json:"profileCoalesced"`
	Runs             uint64 `json:"runs"`
}

// Planner runs sampled simulations: profile once per (workload,
// budgets, interval), cluster deterministically, warm the measuring
// system in place, then simulate only the representative intervals and
// extrapolate. Safe for concurrent use by the engine's workers.
type Planner struct {
	traces   *trace.Store
	profiles memo.Group[profileKey, *Profile]

	profiled         stats.AtomicCounter
	profileHits      stats.AtomicCounter
	profileCoalesced stats.AtomicCounter
	runs             stats.AtomicCounter
}

// NewPlanner builds a planner over the given trace store (nil builds
// a private one). The second argument is ignored; it is kept only so
// perfbench builds.
func NewPlanner(traces *trace.Store, _ *Store) *Planner {
	if traces == nil {
		traces = trace.NewStore("")
	}
	return &Planner{traces: traces}
}

// Stats snapshots the counters.
func (p *Planner) Stats() PlannerStats {
	return PlannerStats{
		Profiled:         p.profiled.Value(),
		ProfileHits:      p.profileHits.Value(),
		ProfileCoalesced: p.profileCoalesced.Value(),
		Runs:             p.runs.Value(),
	}
}

// Snapshots is kept only so perfbench builds: it returns an empty
// store whose counters read zero.
func (*Planner) Snapshots() *Store { return &Store{} }

// Run produces a sampled estimate of RunST(cfg, w, insts, warmup):
// only K representative intervals are simulated in detail; unmeasured
// gaps between them are stepped to keep state exact. The result
// carries a SampleMeta with the measured-instruction count and error
// bars. Deterministic: the same inputs always yield the same Result.
func (p *Planner) Run(cfg config.SystemConfig, w *trace.Workload, insts, warmup int64, spec Spec) (core.Result, error) {
	if err := spec.Validate(insts); err != nil {
		return core.Result{}, err
	}
	if warmup < 0 {
		return core.Result{}, fmt.Errorf("sample: warmup must be non-negative, got %d", warmup)
	}
	p.runs.Inc()
	m, err := p.traces.Materialize(w, warmup+insts)
	if err != nil {
		return core.Result{}, err
	}
	prof, err := p.profile(m, insts, warmup, spec.Interval)
	if err != nil {
		return core.Result{}, err
	}
	cl := Cluster(prof.Features, spec.K, w.Seed)

	sys := core.NewSystem(cfg)
	sys.WarmupST(m.NewReplay(), warmup)
	warmBase := sys.CaptureCumulative()

	// Simulate representatives in stream order, stepping (not
	// skipping) the gaps so each window starts from exact state.
	order := make([]int, len(cl.Reps))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return cl.Reps[order[a]] < cl.Reps[order[b]] })
	perCluster := make([]core.Result, len(cl.Reps))
	pos := int64(0) // instructions stepped past warmup
	for _, c := range order {
		off := int64(cl.Reps[c]) * spec.Interval
		sys.StepST(off - pos)
		base := sys.CaptureCumulative()
		win := sys.BeginMeasure()
		sys.StepST(spec.Interval)
		perCluster[c] = sys.EndMeasureDelta(win, base)
		pos = off + spec.Interval
	}
	sys.Release()

	est := extrapolate(perCluster, cl, warmBase)
	ipcErr, l1dErr, memErr := relErrors(prof, cl)
	est.Sample = &core.SampleMeta{
		Interval:       spec.Interval,
		K:              spec.K,
		MeasuredInsts:  int64(spec.K) * spec.Interval,
		TotalInsts:     insts,
		RelErrIPC:      ipcErr,
		RelErrL1DMiss:  l1dErr,
		RelErrMemLoads: memErr,
	}
	return est, nil
}

// profile returns the cached profile for the key, computing it at most
// once across all concurrent callers.
func (p *Planner) profile(m *trace.Materialized, insts, warmup, interval int64) (*Profile, error) {
	key := profileKey{Name: m.Name(), Seed: m.Seed(), Insts: insts, Warmup: warmup, Interval: interval}
	prof, out, err := p.profiles.Do(key, func() (*Profile, error) {
		prof, err := ProfileWorkload(m, insts, warmup, interval)
		if err == nil {
			p.profiled.Inc()
		}
		return prof, err
	})
	switch out {
	case memo.Hit:
		p.profileHits.Inc()
	case memo.Coalesced:
		p.profileCoalesced.Inc()
	}
	return prof, err
}
