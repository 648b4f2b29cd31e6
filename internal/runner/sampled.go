package runner

import (
	"runtime/debug"

	"catch/internal/core"
	"catch/internal/sample"
)

// Sampled-simulation execution: jobs stamped with a SampleSpec resolve
// through the sample.Planner (profile → cluster → warm restore →
// representative intervals → extrapolation). Any sampling failure —
// planner error or panic — degrades gracefully to a full simulation of
// the same job: the sweep sees a result either way, and the fallback
// is visible in the engine counters and /metrics rather than as a job
// failure.

// stampSampled returns a copy of jobs with the engine's sampling
// defaults applied to every eligible job (single-workload, spec
// valid). It runs before any job is keyed, so stamped keys are the
// ones cached. Ineligible jobs pass through
// unstamped and simulate in full.
func (e *Engine) stampSampled(jobs []Job) []Job {
	out := append([]Job(nil), jobs...)
	for i := range out {
		j := &out[i]
		if j.Sample != nil || len(j.Workloads) != 1 {
			continue
		}
		spec := e.sampleSpec(j.Insts)
		if spec.Validate(j.Insts) != nil {
			continue // budgets the defaults cannot split stay exact
		}
		j.Sample = &SampleSpec{Interval: spec.Interval, K: spec.K}
	}
	return out
}

// DefaultSampleIntervals is the interval count when Options gives no
// interval length; DefaultSampleK the cluster count when it gives no
// k. Sixteen intervals at k=4 measure a quarter of the region ahead of
// clustering gains; explicit options tune the ratio further.
const (
	DefaultSampleIntervals = 16
	DefaultSampleK         = 4
)

// sampleSpec resolves the engine's sampling options against one job's
// instruction budget.
func (e *Engine) sampleSpec(insts int64) sample.Spec {
	spec := sample.Spec{Interval: e.opts.SampleInterval, K: e.opts.SampleK}
	if spec.Interval <= 0 {
		spec.Interval = insts / DefaultSampleIntervals
	}
	if spec.K <= 0 {
		spec.K = DefaultSampleK
	}
	if n := int64(0); spec.Interval > 0 {
		n = insts / spec.Interval
		if int64(spec.K) > n {
			spec.K = int(n)
		}
	}
	return spec
}

// runSampled resolves one stamped job through the planner. Panics are
// contained into an error so the caller's fallback path treats them
// like any other sampling failure.
func (e *Engine) runSampled(j *Job) (rs []core.Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			rs, err = nil, &PanicError{Value: p, Stack: debug.Stack()}
		}
	}()
	ws, err := resolveWorkloads(j.Workloads)
	if err != nil {
		return nil, err
	}
	spec := sample.Spec{Interval: j.Sample.Interval, K: j.Sample.K}
	r, err := e.sampler.Run(j.Config, &ws[0], j.Insts, j.Warmup, spec)
	if err != nil {
		return nil, err
	}
	return []core.Result{r}, nil
}

// Sampled returns how many jobs were resolved by representative-
// interval sampling.
func (e *Engine) Sampled() uint64 { return e.sampled.Value() }

// SampleFallbacks returns how many sampled jobs fell back to full
// simulation after a sampling failure.
func (e *Engine) SampleFallbacks() uint64 { return e.sampleFallback.Value() }

// Sampler returns the engine's planner (nil when sampling is off); the
// HTTP layer exports its counters.
func (e *Engine) Sampler() *sample.Planner { return e.sampler }
