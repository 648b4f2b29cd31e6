package core

import (
	"testing"

	"catch/internal/config"
	"catch/internal/telemetry"
	"catch/internal/workloads"
)

// steadyStateAllocs warms a system up on a workload, then measures heap
// allocations across further simulation batches. A non-nil tracer is
// attached before warmup (the telemetry instrumentation must keep the
// kernel allocation-free whether tracing is off or on).
func steadyStateAllocs(t *testing.T, cfg config.SystemConfig, workload string, tr *telemetry.Tracer) float64 {
	t.Helper()
	w, ok := workloads.ByName(workload)
	if !ok {
		t.Fatalf("workload %s", workload)
	}
	sys := NewSystem(cfg)
	if tr != nil {
		sys.AttachTracer(tr)
	}
	// Warm up long enough for every learned structure (detector buffer,
	// TACT tables, MSHRs, stream trackers) to reach its steady footprint.
	sys.WarmupST(w.NewGen(), 60_000)
	return testing.AllocsPerRun(5, func() {
		sys.StepST(10_000)
	})
}

// TestRunSTSteadyStateAllocsBaseline guards the headline property of
// the allocation-free kernel: once warm, simulating an instruction on
// the baseline configuration performs zero heap allocations.
func TestRunSTSteadyStateAllocsBaseline(t *testing.T) {
	if allocs := steadyStateAllocs(t, config.BaselineExclusive(), "hmmer", nil); allocs != 0 {
		t.Errorf("baseline steady-state RunST: %v allocs per 10k-inst batch, want 0", allocs)
	}
}

// TestRunSTSteadyStateAllocsCATCH is the same guard with the
// criticality detector and all TACT prefetchers active.
func TestRunSTSteadyStateAllocsCATCH(t *testing.T) {
	cfg := config.WithCATCH(config.BaselineExclusive(), "catch")
	if allocs := steadyStateAllocs(t, cfg, "hmmer", nil); allocs != 0 {
		t.Errorf("CATCH steady-state RunST: %v allocs per 10k-inst batch, want 0", allocs)
	}
}

// TestRunSTSteadyStateAllocsWithDisabledTracer guards the one-branch
// promise: a tracer attached to every component but switched off must
// leave the kernel allocation-free.
func TestRunSTSteadyStateAllocsWithDisabledTracer(t *testing.T) {
	cfg := config.WithCATCH(config.BaselineExclusive(), "catch")
	tr := telemetry.NewTracer(telemetry.TracerConfig{BufferEvents: 1 << 10})
	tr.SetEnabled(false)
	if allocs := steadyStateAllocs(t, cfg, "hmmer", tr); allocs != 0 {
		t.Errorf("disabled-tracer steady-state RunST: %v allocs per 10k-inst batch, want 0", allocs)
	}
	if tr.Len() != 0 {
		t.Errorf("disabled tracer recorded %d events, want 0", tr.Len())
	}
}

// TestRunSTSteadyStateAllocsWithEnabledTracer is the stronger claim:
// even recording into its ring, the instrumented kernel allocates
// nothing in steady state.
func TestRunSTSteadyStateAllocsWithEnabledTracer(t *testing.T) {
	cfg := config.WithCATCH(config.BaselineExclusive(), "catch")
	tr := telemetry.NewTracer(telemetry.TracerConfig{BufferEvents: 1 << 12, SampleEvery: 8})
	if allocs := steadyStateAllocs(t, cfg, "hmmer", tr); allocs != 0 {
		t.Errorf("enabled-tracer steady-state RunST: %v allocs per 10k-inst batch, want 0", allocs)
	}
	if tr.Len() == 0 {
		t.Error("enabled tracer recorded no events")
	}
}

// TestRunSTSteadyStateAllocsAcrossWorkloads sweeps a few archetypes so
// the guard is not an artifact of one access pattern.
func TestRunSTSteadyStateAllocsAcrossWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg := config.WithCATCH(config.BaselineExclusive(), "catch")
	for _, w := range []string{"mcf", "omnetpp", "xalancbmk"} {
		if _, ok := workloads.ByName(w); !ok {
			continue
		}
		if allocs := steadyStateAllocs(t, cfg, w, nil); allocs != 0 {
			t.Errorf("%s: %v allocs per 10k-inst batch, want 0", w, allocs)
		}
	}
}
