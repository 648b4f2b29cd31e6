package experiments

import (
	"bytes"
	"encoding/json"
	"testing"

	"catch/internal/config"
	"catch/internal/core"
	"catch/internal/criticality"
	"catch/internal/tact"
	"catch/internal/workloads"
)

// controlWorkloads is TestControlExperiments's workload subset: one
// workload per kernel archetype (integer compute, the server mix,
// critical gathers, an L2-resident loop, a stream, the client mix, a
// pointer chase, cross-structure traversals, a stencil, FP compute,
// many critical loads and an LLC-sized hash), covering every category.
var controlWorkloads = []string{
	"perlbench", "tpcc", "mcf", "hmmer", "lbm", "sysmark-excel",
	"bfs", "photoedit", "hplinpack", "gamess", "povray", "memcached",
}

// TestControlExperiments switches CATCH's mechanisms on one at a time
// with their effect held at nothing, and requires timing identical to
// nol2-6.5 without them. Each control must marshal byte-identically to
// nol2-6.5's result outside the blocks the detector and TACT own
// (Crit, CriticalPCs, Tact, CodePfLearned, CodePfIssued and
// Hier.TactTimeliness), at 20k instructions after 10k:
//   - the detector alone: it observes retirement and must not change
//     timing;
//   - nol2-6.5-catch with all four TACT components off: the detector
//     and an idle TACT;
//   - the detector with an empty record mask: it tracks no level.
//
// A probe of all 70 workloads at this budget found no difference. A
// difference is a finding to explain, never a tolerance to add.
func TestControlExperiments(t *testing.T) {
	const insts, warmup = 20_000, 10_000
	base, _ := ConfigByName("nol2-6.5")
	detector := base
	detector.Name = "nol2-6.5+detector"
	detector.EnableCriticality = true
	idle, _ := ConfigByName("nol2-6.5-catch")
	idle.Name = "nol2-6.5-catch-idle"
	idle.Tact.EnableCross, idle.Tact.EnableDeep = false, false
	idle.Tact.EnableFeeder, idle.Tact.EnableCode = false, false
	unrecorded := detector
	unrecorded.Name = "nol2-6.5+detector-norecord"
	unrecorded.CritRecord = 0

	// outside marshals r with the detector's and TACT's blocks zeroed
	// and the config named as the reference's.
	outside := func(r core.Result) []byte {
		r.Config = base.Name
		r.Crit, r.CriticalPCs = criticality.Stats{}, 0
		r.Tact = tact.Stats{}
		r.CodePfLearned, r.CodePfIssued = 0, 0
		r.Hier.TactTimeliness = nil
		raw, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	recorded := uint64(0)
	for _, name := range controlWorkloads {
		w, ok := workloads.ByName(name)
		if !ok {
			t.Fatalf("unknown workload %q", name)
		}
		run := func(cfg config.SystemConfig) core.Result {
			return core.NewSystem(cfg).RunST(w.NewGen(), insts, warmup)
		}
		want := outside(run(base))
		for _, cfg := range []config.SystemConfig{detector, idle, unrecorded} {
			r := run(cfg)
			if got := outside(r); !bytes.Equal(got, want) {
				t.Errorf("%s on %s differs from %s outside the detector's and TACT's blocks:\n got %s\nwant %s",
					name, cfg.Name, base.Name, got, want)
			}
			if r.Crit.Walks == 0 {
				t.Errorf("%s on %s: the detector walked no graph; the control did not run it", name, cfg.Name)
			}
			if cfg.CritRecord == 0 && r.Crit.RecordedLoads != 0 {
				t.Errorf("%s on %s: the detector recorded %d loads under an empty mask",
					name, cfg.Name, r.Crit.RecordedLoads)
			}
			recorded += r.Crit.RecordedLoads
		}
	}
	if recorded == 0 {
		t.Error("no control recorded a load; the empty mask changed nothing")
	}
}
