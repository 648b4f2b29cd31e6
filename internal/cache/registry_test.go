package cache_test

import (
	"testing"

	"catch/internal/cache"
	"catch/internal/core"
	"catch/internal/experiments"
	"catch/internal/trace"
	"catch/internal/workloads"
)

// TestSetWorkloadPrewarmMatchesPerLine pins the prewarm on real inputs:
// for every registered config and every workload, core.NewSystem +
// SetWorkload must leave the LLC, once every set is placed, deeply
// equal to prewarming the workload's regions line by line into a fresh
// LLC of the same config, a Probe then a Fill when absent. It also
// pins the path: every registered config uses LRU and no workload's
// regions overlap, so the prewarm is deferred unless an inclusive LLC
// overflows (povray's regions on the inclusive configs).
func TestSetWorkloadPrewarmMatchesPerLine(t *testing.T) {
	for _, w := range workloads.All() {
		t.Run(w.WName, func(t *testing.T) {
			t.Parallel()
			gen := w.NewGen() // attaching does not consume it
			var regs []trace.Region
			if pw, ok := gen.(trace.Prewarmer); ok {
				regs = pw.PrewarmRegions()
			}
			// One reference per distinct LLC: the private caches are
			// empty at attach, so inclusion changes nothing here.
			type llc struct {
				cache.Config
				policy string
			}
			refs := make(map[llc]*cache.Cache)
			for _, name := range experiments.ConfigNames() {
				cfg, _ := experiments.ConfigByName(name)
				got := core.NewSystem(cfg)
				got.Sims[0].SetWorkload(gen)
				deferred := cache.Deferred(got.LLC)
				got.LLC.PlacePrewarm()

				key := llc{got.LLC.Cfg, got.LLC.PolicyName()}
				want, ok := refs[key]
				if !ok {
					want = core.NewSystem(cfg).LLC
					for _, r := range regs {
						// Core 0's physical addresses are its own.
						for a := r.Base; a < r.Base+r.Size; a += trace.CacheLineSize {
							la := cache.LineAddr(a)
							if want.Probe(la) == nil {
								want.Fill(la, 0, 0, false, cache.PfNone)
							}
						}
					}
					refs[key] = want
				}
				if !cache.SameState(got.LLC, want) {
					t.Errorf("%s: SetWorkload's prewarm differs from the per-line reference (fills %d vs %d, evictions %d vs %d)",
						name, got.LLC.Stats.Fills, want.Stats.Fills, got.LLC.Stats.Evictions, want.Stats.Evictions)
				}
				eager := cfg.Inclusive && want.Stats.Evictions > 0
				if wantDeferred := want.Stats.Fills > 0 && !eager; deferred != wantDeferred {
					t.Errorf("%s: prewarm deferred %v, want %v (inclusive %v, %d evictions)",
						name, deferred, wantDeferred, cfg.Inclusive, want.Stats.Evictions)
				}
			}
		})
	}
}
