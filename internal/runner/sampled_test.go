package runner

import (
	"context"
	"errors"
	"testing"

	"catch/internal/config"
	"catch/internal/core"
	"catch/internal/telemetry"
)

func sampleGrid(insts int64) []Job {
	return (&Grid{
		Configs: []config.SystemConfig{
			config.BaselineExclusive(),
			config.WithCATCH(config.BaselineExclusive(), "catch-sampled"),
		},
		Workloads: []string{"mcf", "libquantum"},
		Insts:     insts,
		Warmup:    insts / 2,
	}).Jobs()
}

// TestSampledSweep runs a small grid through the sampling path and
// pins the workflow: every job resolves sampled (no fallbacks), every
// result carries its SampleMeta, the instruction budget is honored and
// the sampled keys differ from the exact ones.
func TestSampledSweep(t *testing.T) {
	const insts = 4_000
	jobs := sampleGrid(insts)
	eng := New(Options{
		Workers: 2,
		Cache:   NewCache(""),
		Sample:  true, SampleInterval: 500, SampleK: 3,
	})
	rs := eng.Run(context.Background(), jobs)
	if err := FirstError(rs); err != nil {
		t.Fatalf("sweep failed: %v", err)
	}
	if got, want := eng.Sampled(), uint64(len(jobs)); got != want {
		t.Errorf("Sampled() = %d, want %d", got, want)
	}
	if eng.SampleFallbacks() != 0 {
		t.Errorf("SampleFallbacks() = %d, want 0", eng.SampleFallbacks())
	}
	for i := range rs {
		if rs[i].Job.Sample == nil {
			t.Fatalf("job %d was not stamped", i)
		}
		if rs[i].Job.Key() == jobs[i].Key() {
			t.Errorf("job %d: sampled key equals exact key", i)
		}
		for _, r := range rs[i].Results {
			if r.Sample == nil {
				t.Errorf("job %d: result carries no SampleMeta", i)
				continue
			}
			if r.Insts != insts {
				t.Errorf("job %d: extrapolated Insts = %d, want %d", i, r.Insts, insts)
			}
			if r.Sample.MeasuredInsts != 3*500 {
				t.Errorf("job %d: MeasuredInsts = %d, want %d", i, r.Sample.MeasuredInsts, 3*500)
			}
		}
	}
	// Profiles are per-workload.
	if ps := eng.Sampler().Stats(); ps.Profiled != 2 {
		t.Errorf("profiles built = %d, want 2 (one per workload)", ps.Profiled)
	}
}

// TestSampledFallback forces the planner to fail and pins graceful
// degradation: the job still succeeds via full simulation, the
// fallback is counted, and the result carries no SampleMeta.
func TestSampledFallback(t *testing.T) {
	const insts = 2_000
	jobs := sampleGrid(insts)[:1]
	reg := telemetry.NewRegistry()
	eng := New(Options{Workers: 1, Sample: true, SampleInterval: 500, SampleK: 2, Metrics: reg})
	eng.sampleRun = func(*Job) ([]core.Result, error) {
		return nil, errors.New("injected sampling failure")
	}
	rs := eng.Run(context.Background(), jobs)
	if err := FirstError(rs); err != nil {
		t.Fatalf("job failed instead of falling back: %v", err)
	}
	if eng.Sampled() != 0 || eng.SampleFallbacks() != 1 {
		t.Errorf("Sampled=%d SampleFallbacks=%d, want 0 and 1", eng.Sampled(), eng.SampleFallbacks())
	}
	if len(rs[0].Results) != 1 || rs[0].Results[0].Sample != nil {
		t.Errorf("fallback result should be a full simulation without SampleMeta: %+v", rs[0].Results)
	}
	if rs[0].Results[0].Insts != insts {
		t.Errorf("fallback Insts = %d, want %d", rs[0].Results[0].Insts, insts)
	}
}

// TestSampledStampSkipsIneligible pins that multi-programmed jobs and
// budgets the defaults cannot split stay unstamped (and therefore run
// exact), rather than failing validation.
func TestSampledStampSkipsIneligible(t *testing.T) {
	eng := New(Options{Workers: 1, Sample: true})
	mp := MPJob(config.BaselineExclusive(), []string{"mcf", "lbm"}, 2_000, 500)
	odd := STJob(config.BaselineExclusive(), "mcf", 7, 3) // 7 insts: indivisible by 16
	stamped := eng.stampSampled([]Job{mp, odd})
	if stamped[0].Sample != nil {
		t.Error("multi-programmed job was stamped for sampling")
	}
	if stamped[1].Sample != nil {
		t.Error("indivisible budget was stamped for sampling")
	}
}

// TestSampledResumeRoundTrip pins that a sampled sweep re-run over the
// same cache recomputes nothing: stamping happens before any job is
// keyed, so the cached keys are the stamped ones and a fresh engine
// over the same cache directory serves every job from it.
func TestSampledResumeRoundTrip(t *testing.T) {
	const insts = 2_000
	jobs := sampleGrid(insts)[:2]
	dir := t.TempDir()
	opts := Options{Workers: 1, Cache: NewCache(dir), Sample: true, SampleInterval: 500, SampleK: 2}
	eng := New(opts)
	first := eng.Run(context.Background(), jobs)
	if err := FirstError(first); err != nil {
		t.Fatalf("first run: %v", err)
	}
	if eng.Executed() == 0 {
		t.Fatal("first run executed nothing")
	}
	opts.Cache = NewCache(dir) // a fresh process over the same directory
	resumed := New(opts)
	rs := resumed.Run(context.Background(), jobs)
	if err := FirstError(rs); err != nil {
		t.Fatalf("resume run: %v", err)
	}
	if n := resumed.Executed(); n != 0 {
		t.Errorf("resume recomputed %d jobs", n)
	}
	for i := range rs {
		if !rs[i].Cached {
			t.Errorf("job %d not served from cache on resume", i)
		}
	}
	if string(flatBytes(t, rs)) != string(flatBytes(t, first)) {
		t.Error("resumed sampled sweep diverged from the first run")
	}
}
