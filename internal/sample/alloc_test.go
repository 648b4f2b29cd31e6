package sample

import (
	"testing"

	"catch/internal/config"
	"catch/internal/core"
	"catch/internal/trace"
	"catch/internal/workloads"
)

// TestRestoredStepSteadyStateAllocs guards the sampling hot path: a
// system warmed in place over a trace replay, as Planner.Run warms it,
// must step gap and measurement instructions without heap allocations,
// exactly like the RunST kernel it replaces. The core alloc tests drive
// generators, so this is the replay path's guard. (The per-window
// EndMeasureDelta bookkeeping may allocate; the instruction stepping in
// between must not.)
func TestRestoredStepSteadyStateAllocs(t *testing.T) {
	cfg := config.WithCATCH(config.BaselineExclusive(), "catch-alloc")
	w, ok := workloads.ByName("mcf")
	if !ok {
		t.Fatal("workload mcf")
	}
	const warmup, insts = 20_000, 40_000
	m, err := trace.NewStore("").Materialize(&w, warmup+insts)
	if err != nil {
		t.Fatal(err)
	}
	sys := core.NewSystem(cfg)
	sys.WarmupST(m.NewReplay(), warmup)
	// Settle the warmed system: replay-side buffers reach steady
	// footprint.
	sys.StepST(5_000)
	if allocs := testing.AllocsPerRun(5, func() { sys.StepST(2_000) }); allocs != 0 {
		t.Errorf("warmed steady-state StepST: %v allocs per 2k-inst batch, want 0", allocs)
	}
}
