package core

import (
	"reflect"
	"testing"

	"catch/internal/cache"
	"catch/internal/config"
	"catch/internal/trace"
	"catch/internal/workloads"
)

// batchTestConfigs spans the model variants whose state the lock-step
// kernel must keep private: the plain exclusive baseline, a latency
// variant, full CATCH (criticality detector + TACT, which exercises the
// replayed ValueAt path), and a gshare config (whose predictor rewrites
// Inst.Mispred and therefore must not touch the shared trace).
func batchTestConfigs() []config.SystemConfig {
	base := config.BaselineExclusive()
	gshare := config.BaselineExclusive()
	gshare.Name = "baseline-excl+gshare"
	gshare.GsharePredictorBits = 12
	return []config.SystemConfig{
		base,
		config.WithLatencyDelta(base, cache.HitLLC, 6, "baseline-excl+llc6"),
		config.WithCATCH(config.NoL2(base, 6656<<10, 13, "noL2"), "catch"),
		gshare,
	}
}

// TestRunBatchMatchesRunST is the batch kernel's correctness anchor:
// for every config in the batch, the result must be deeply equal to a
// scalar RunST of the same workload on a fresh system — byte-identical
// results, not merely close ones. The budget is deliberately not a
// multiple of the lock-step chunk so the partial-chunk edges and the
// mid-chunk warmup boundary are exercised.
func TestRunBatchMatchesRunST(t *testing.T) {
	const insts, warmup = 7_500, 3_300
	w, ok := workloads.ByName("mcf")
	if !ok {
		t.Fatal("workload mcf")
	}
	m, err := trace.NewStore("").Materialize(&w, insts+warmup)
	if err != nil {
		t.Fatal(err)
	}
	cfgs := batchTestConfigs()
	batch, err := RunBatch(m, cfgs, insts, warmup)
	if err != nil {
		t.Fatal(err)
	}
	for k, cfg := range cfgs {
		scalar := NewSystem(cfg).RunST(w.NewGen(), insts, warmup)
		if !reflect.DeepEqual(batch[k], scalar) {
			t.Errorf("config %s: batch result differs from scalar RunST\nbatch:  %+v\nscalar: %+v",
				cfg.Name, batch[k], scalar)
		}
	}
}

// TestRunBatchZeroWarmup covers the degenerate warmup=0 boundary.
func TestRunBatchZeroWarmup(t *testing.T) {
	const insts = 4_000
	w, _ := workloads.ByName("hmmer")
	m, err := trace.NewStore("").Materialize(&w, insts)
	if err != nil {
		t.Fatal(err)
	}
	cfg := config.BaselineExclusive()
	batch, err := RunBatch(m, []config.SystemConfig{cfg}, insts, 0)
	if err != nil {
		t.Fatal(err)
	}
	scalar := NewSystem(cfg).RunST(w.NewGen(), insts, 0)
	if !reflect.DeepEqual(batch[0], scalar) {
		t.Errorf("warmup=0: batch result differs from scalar RunST")
	}
}

// TestRunBatchErrors covers the argument guards.
func TestRunBatchErrors(t *testing.T) {
	w, _ := workloads.ByName("mcf")
	m, err := trace.NewStore("").Materialize(&w, 1_000)
	if err != nil {
		t.Fatal(err)
	}
	cfgs := []config.SystemConfig{config.BaselineExclusive()}
	if _, err := RunBatch(m, cfgs, 0, 0); err == nil {
		t.Error("insts=0 accepted, want error")
	}
	if _, err := RunBatch(m, cfgs, 100, -1); err == nil {
		t.Error("negative warmup accepted, want error")
	}
	if _, err := RunBatch(m, cfgs, 900, 200); err == nil {
		t.Error("budget beyond the recording accepted, want error")
	}
	if rs, err := RunBatch(m, nil, 500, 100); err != nil || len(rs) != 0 {
		t.Errorf("empty batch: got (%v, %v), want empty results", rs, err)
	}
}

// TestBatchStepAllocs proves the lock-step inner loop allocates nothing
// in steady state, with and without a branch predictor (the predictor
// path steps a private copy of each record).
func TestBatchStepAllocs(t *testing.T) {
	const warm = 8_192
	w, _ := workloads.ByName("hmmer")
	m, err := trace.NewStore("").Materialize(&w, warm+batchChunk)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]trace.Inst, warm+batchChunk)
	r := m.NewReplay()
	for i := range buf {
		if !r.Next(&buf[i]) {
			t.Fatalf("recording exhausted at %d", i)
		}
	}
	gshare := config.BaselineExclusive()
	gshare.GsharePredictorBits = 12
	for _, cfg := range []config.SystemConfig{config.BaselineExclusive(), gshare} {
		c := NewSystem(cfg).Sims[0]
		c.SetWorkload(m.NewReplay())
		stepChunk(c, buf[:warm]) // reach steady state first
		chunk := buf[warm:]
		allocs := testing.AllocsPerRun(50, func() { stepChunk(c, chunk) })
		if allocs != 0 {
			t.Errorf("%s (BP=%v): stepChunk allocates %.1f times per chunk, want 0",
				cfg.Name, c.CPU.BP != nil, allocs)
		}
	}
}
