package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"catch/internal/core"
	"catch/internal/fault"
	"catch/internal/sample"
	"catch/internal/stats"
	"catch/internal/telemetry"
	"catch/internal/trace"
)

// Job outcome statuses, as reported in JobResult.Status.
const (
	// StatusOK marks a job that produced results (computed or cached).
	StatusOK = "ok"
	// StatusFailed marks a job that exhausted its attempts with an error.
	StatusFailed = "failed"
	// StatusCanceled marks a job cut short by context cancellation or an
	// engine drain — it was never given its full attempt budget, so it
	// is retryable work, not a failure.
	StatusCanceled = "canceled"
)

// ErrDraining reports that the engine stopped feeding new jobs because
// Drain was called.
var ErrDraining = errors.New("engine draining")

// Options configures an Engine.
type Options struct {
	// Workers bounds the worker pool; <=0 means GOMAXPROCS.
	Workers int
	// Cache memoizes and coalesces jobs; nil runs every job fresh.
	Cache *Cache
	// Timeout bounds one execution attempt; 0 means no limit.
	Timeout time.Duration
	// Retries is the number of extra attempts after a failed or
	// timed-out execution.
	Retries int
	// Backoff schedules the pause before each retry (exponential with
	// deterministic seeded jitter). The zero value keeps the engine's
	// historical immediate retries.
	Backoff fault.Backoff
	// Fault, when non-nil, injects deterministic faults (slow, hang,
	// exec-error and panic kinds) around job execution attempts. Chaos
	// testing only; nil means faults off.
	Fault *fault.Injector
	// Logf receives rare human-facing diagnostics (panic stacks,
	// batch and sampling fallbacks); nil discards them.
	Logf func(format string, args ...any)
	// Metrics, when non-nil, receives the engine's job counters and
	// latency histogram (catch_engine_*). Handles are nil-safe, so an
	// unmetered engine pays nothing.
	Metrics *telemetry.Registry
	// Batch groups single-thread jobs that share a (workload, insts,
	// warmup) budget and resolves each group through one lock-step
	// core.RunBatch call over a shared materialized trace. Results are
	// byte-identical to the scalar path and fan back out to the same
	// per-job cache keys; any batch-level error falls back to scalar
	// execution job by job.
	Batch bool
	// Sample resolves eligible single-workload jobs by representative-
	// interval sampling: profile once per workload, cluster intervals,
	// warm the job's system in place, simulate only cluster
	// representatives and extrapolate. Results carry a SampleMeta with
	// error bars; any sampling failure falls back to full simulation of
	// that job.
	Sample bool
	// SampleInterval is the interval length in instructions; <=0
	// derives insts/DefaultSampleIntervals per job.
	SampleInterval int64
	// SampleK is the clusters (representatives simulated) per job;
	// <=0 means DefaultSampleK.
	SampleK int
}

// batchSize caps the configurations per RunBatch call: wide enough to
// amortize the trace decode, narrow enough that the batch's combined
// simulator state stays cache-resident.
const batchSize = 8

// Engine shards jobs across a bounded worker pool. Each execution
// builds a private core.System (System is not goroutine-safe and warm
// state must not leak between jobs), so results are independent of the
// worker count.
type Engine struct {
	opts Options
	// simulate is the job executor; tests substitute it to count or
	// delay executions.
	simulate func(*Job) ([]core.Result, error)
	// sampleRun resolves one stamped job through the planner; tests
	// substitute it to force sampling failures.
	sampleRun func(*Job) ([]core.Result, error)

	// traces is the one memory-only trace store the batch path and the
	// sampler share (nil when neither Batch nor Sample is on).
	traces *trace.Store
	// sampler resolves sampled jobs (nil when Options.Sample is off).
	sampler *sample.Planner

	executed       stats.AtomicCounter
	batched        stats.AtomicCounter
	batchFallback  stats.AtomicCounter
	sampled        stats.AtomicCounter
	sampleFallback stats.AtomicCounter

	drain     chan struct{}
	drainOnce sync.Once

	// Metric handles (nil when Options.Metrics is nil; every update on
	// a nil handle is a no-op).
	mInflight   *telemetry.Gauge
	mCompleted  *telemetry.Counter
	mFailed     *telemetry.Counter
	mCanceled   *telemetry.Counter
	mRetried    *telemetry.Counter
	mJobSeconds *telemetry.Histogram
}

// JobResult pairs a job with its outcome. Exactly one of Results/Err
// is meaningful; a failed job never aborts the rest of the sweep.
type JobResult struct {
	Job     Job           `json:"job"`
	Key     string        `json:"key"`
	Results []core.Result `json:"results,omitempty"`
	Err     string        `json:"error,omitempty"`
	Status  string        `json:"status,omitempty"`
	// Stack is the goroutine stack of the first panic this job hit
	// (empty when it never panicked).
	Stack   string        `json:"stack,omitempty"`
	Cached  bool          `json:"cached"`
	Elapsed time.Duration `json:"elapsedNs"`
}

// New builds an engine.
func New(opts Options) *Engine {
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	e := &Engine{opts: opts, drain: make(chan struct{})}
	if opts.Batch || opts.Sample {
		e.traces = trace.NewStore("")
	}
	if opts.Sample {
		e.sampler = sample.NewPlanner(e.traces, nil)
	}
	e.sampleRun = e.runSampled
	e.simulate = func(j *Job) ([]core.Result, error) {
		if j.Sample != nil && e.sampler != nil {
			rs, err := e.sampleRun(j)
			if err == nil {
				e.sampled.Inc()
				return rs, nil
			}
			e.sampleFallback.Inc()
			e.logf("runner: sampled job %s fell back to full simulation: %v", shortKey(j.Key()), err)
		}
		return j.Execute()
	}
	if r := opts.Metrics; r != nil {
		e.mInflight = r.Gauge("catch_engine_jobs_inflight",
			"Jobs currently being resolved by the engine.")
		e.mCompleted = r.Counter("catch_engine_jobs_completed_total",
			"Jobs resolved successfully (including cache hits).")
		e.mFailed = r.Counter("catch_engine_jobs_failed_total",
			"Jobs that exhausted their attempts with an error.")
		e.mCanceled = r.Counter("catch_engine_jobs_canceled_total",
			"Jobs cut short by context cancellation or drain (retryable, not failed).")
		e.mRetried = r.Counter("catch_engine_jobs_retried_total",
			"Extra simulation attempts after a failure or timeout.")
		e.mJobSeconds = r.Histogram("catch_engine_job_seconds",
			"Wall-clock latency of one job resolution.",
			0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5, 10, 30, 60, 120)
		r.CounterFunc("catch_engine_executions_total",
			"Simulations actually started (cache hits and coalesced waits excluded).",
			func() float64 { return float64(e.executed.Value()) })
		r.CounterFunc("catch_engine_jobs_batched_total",
			"Jobs resolved by the lock-step batch kernel.",
			func() float64 { return float64(e.batched.Value()) })
		r.CounterFunc("catch_engine_batch_fallbacks_total",
			"Batch units that fell back to scalar per-job execution.",
			func() float64 { return float64(e.batchFallback.Value()) })
		r.CounterFunc("catch_engine_jobs_sampled_total",
			"Jobs resolved by representative-interval sampling.",
			func() float64 { return float64(e.sampled.Value()) })
		r.CounterFunc("catch_engine_sample_fallbacks_total",
			"Sampled jobs that fell back to full simulation after a sampling failure.",
			func() float64 { return float64(e.sampleFallback.Value()) })
	}
	return e
}

// Workers returns the configured pool size.
func (e *Engine) Workers() int { return e.opts.Workers }

// Cache returns the engine's cache (nil when uncached).
func (e *Engine) Cache() *Cache { return e.opts.Cache }

// FaultInjector returns the configured injector (nil when faults are
// off); the HTTP layer exports its counters.
func (e *Engine) FaultInjector() *fault.Injector { return e.opts.Fault }

// Drain stops feeding new jobs to the workers: running jobs finish
// normally, unfed jobs come back with Status Canceled so they can be
// re-run later. Idempotent; the engine stays drained.
func (e *Engine) Drain() { e.drainOnce.Do(func() { close(e.drain) }) }

// Draining reports whether Drain has been called.
func (e *Engine) Draining() bool {
	select {
	case <-e.drain:
		return true
	default:
		return false
	}
}

// Run executes jobs and returns one JobResult per job, in job order
// regardless of scheduling. Individual failures are reported in the
// corresponding JobResult; Run itself only stops early if ctx is
// cancelled or the engine drains (pending jobs then carry Status
// Canceled). Every job goes to the pool, and a job whose key is
// already cached comes back Cached without computing, so re-running an
// interrupted sweep over the same cache executes only the unfinished
// jobs.
func (e *Engine) Run(ctx context.Context, jobs []Job) []JobResult {
	out := make([]JobResult, len(jobs))
	if len(jobs) == 0 {
		return out
	}
	// Sampling stamps specs onto eligible jobs before anything reads a
	// key, so the cache and the results agree on the job identity.
	if e.opts.Sample {
		jobs = e.stampSampled(jobs)
	}
	// The scheduler hands workers whole units: singletons on the scalar
	// path, (workload, insts, warmup) groups when batching is on.
	units := e.planUnits(jobs)
	workers := min(e.opts.Workers, len(units))
	feedCh := make(chan []int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for unit := range feedCh {
				e.runUnit(ctx, jobs, unit, out)
			}
		}()
	}
feed:
	for _, unit := range units {
		// A signaled stop always wins over handing out the next unit;
		// without this pre-check the select below picks randomly when a
		// worker is already waiting.
		select {
		case <-ctx.Done():
			break feed
		case <-e.drain:
			break feed
		default:
		}
		select {
		case feedCh <- unit:
		case <-ctx.Done():
			break feed
		case <-e.drain:
			break feed
		}
	}
	close(feedCh)
	wg.Wait()
	for i := range out {
		if out[i].Key == "" { // never scheduled
			reason := ctx.Err()
			if reason == nil {
				reason = ErrDraining
			}
			out[i] = JobResult{Job: jobs[i], Key: jobs[i].Key(), Err: reason.Error(), Status: StatusCanceled}
			e.mCanceled.Inc()
		}
	}
	return out
}

// cacheGetCounted reads key from the cache with hit/miss accounting,
// used where a miss means the engine is about to compute the job
// itself.
func (e *Engine) cacheGetCounted(key string) ([]core.Result, bool) {
	if e.opts.Cache == nil {
		return nil, false
	}
	return e.opts.Cache.GetCounted(key)
}

// runOne resolves a single job through the cache (when present) with
// timeout and retry handling around the actual simulation.
func (e *Engine) runOne(ctx context.Context, j Job) JobResult {
	start := time.Now()
	e.mInflight.Add(1)
	defer e.mInflight.Add(-1)
	key := j.Key()
	jr := JobResult{Job: j, Key: key}
	compute := func() ([]core.Result, error) { return e.attempts(ctx, &j, key, &jr) }

	var rs []core.Result
	var err error
	if e.opts.Cache != nil {
		rs, jr.Cached, err = e.opts.Cache.Do(key, compute)
	} else {
		rs, err = compute()
	}
	switch {
	case err == nil:
		jr.Status = StatusOK
		e.mCompleted.Inc()
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		// The job never got its full attempt budget: retryable work,
		// not a failure.
		jr.Err = err.Error()
		jr.Status = StatusCanceled
		e.mCanceled.Inc()
	default:
		jr.Err = err.Error()
		jr.Status = StatusFailed
		e.mFailed.Inc()
	}
	jr.Results = rs
	jr.Elapsed = time.Since(start)
	e.mJobSeconds.Observe(jr.Elapsed.Seconds())
	return jr
}

// attempts runs the simulation up to 1+Retries times, bounding each
// attempt by the per-job timeout and pausing per the backoff schedule.
// Permanent errors and context cancellation stop the retry loop early;
// the first panic's stack is captured into jr and logged exactly once
// per job, however many attempts panic.
func (e *Engine) attempts(ctx context.Context, j *Job, site string, jr *JobResult) ([]core.Result, error) {
	if err := j.Validate(); err != nil {
		return nil, err // structural errors do not retry
	}
	var last error
	var slept time.Duration
	for try := 0; try <= e.opts.Retries; try++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if try > 0 {
			d := e.opts.Backoff.Delay(site, try)
			if budget := e.opts.Backoff.Budget; budget > 0 && slept+d > budget {
				return nil, fmt.Errorf("retry budget %v exhausted: %w", budget, last)
			}
			if d > 0 {
				slept += d
				t := time.NewTimer(d)
				select {
				case <-t.C:
				case <-ctx.Done():
					t.Stop()
					return nil, ctx.Err()
				}
			}
			e.mRetried.Inc()
		}
		rs, err := e.attempt(ctx, j, site)
		if err == nil {
			return rs, nil
		}
		var pe *PanicError
		if errors.As(err, &pe) && jr.Stack == "" {
			jr.Stack = string(pe.Stack)
			e.logf("runner: job %s panicked: %v\n%s", shortKey(site), pe.Value, pe.Stack)
		}
		last = fmt.Errorf("attempt %d/%d: %w", try+1, e.opts.Retries+1, err)
		if fault.IsPermanent(err) ||
			errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return nil, last
		}
	}
	return nil, last
}

// attempt runs one bounded execution of j's simulation.
func (e *Engine) attempt(ctx context.Context, j *Job, site string) ([]core.Result, error) {
	e.executed.Inc()
	return bounded(ctx, e, site, func() ([]core.Result, error) { return e.simulate(j) })
}

// bounded runs run once under the engine's fault hooks for site, panic
// containment and the per-attempt timeout. A simulation is pure CPU
// and cannot be interrupted mid-run, so on timeout the goroutine is
// abandoned to finish (and be discarded) while the attempt is reported
// as timed out — the bounded retry/error path keeps a straggler from
// wedging the whole sweep. An injected hang blocks until the context
// ends, so chaos runs need a cancelable context or a per-attempt
// Timeout (the abandoned goroutine drains once the sweep's context is
// done). The recover backstops test stubs and injected panics; real
// simulations already recover inside Job.Execute.
func bounded[T any](ctx context.Context, e *Engine, site string, run func() (T, error)) (T, error) {
	protected := func() (v T, err error) {
		defer func() {
			if p := recover(); p != nil {
				err = &PanicError{Value: p, Stack: debug.Stack()}
			}
		}()
		if err := e.injectFaults(ctx, site); err != nil {
			return v, err
		}
		return run()
	}
	if e.opts.Timeout <= 0 && ctx.Done() == nil && e.opts.Fault == nil {
		return protected()
	}
	type outcome struct {
		v   T
		err error
	}
	ch := make(chan outcome, 1)
	go func() {
		v, err := protected()
		ch <- outcome{v, err}
	}()
	var timeout <-chan time.Time
	if e.opts.Timeout > 0 {
		t := time.NewTimer(e.opts.Timeout)
		defer t.Stop()
		timeout = t.C
	}
	var zero T
	select {
	case o := <-ch:
		return o.v, o.err
	case <-timeout:
		return zero, fmt.Errorf("timed out after %v", e.opts.Timeout)
	case <-ctx.Done():
		return zero, ctx.Err()
	}
}

// injectFaults applies the configured injector's slow, hang, panic and
// exec faults for site (panic faults panic, to be recovered by the
// caller's containment). A nil injector injects nothing.
func (e *Engine) injectFaults(ctx context.Context, site string) error {
	inj := e.opts.Fault
	if inj == nil {
		return nil
	}
	if d := inj.SlowDelay(site); d > 0 {
		t := time.NewTimer(d)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return ctx.Err()
		}
	}
	if inj.Fire(fault.Hang, site) {
		<-ctx.Done()
		return ctx.Err()
	}
	if inj.Fire(fault.Panic, site) {
		panic(inj.Err(fault.Panic, site))
	}
	if inj.Fire(fault.Exec, site) {
		return inj.Err(fault.Exec, site)
	}
	return nil
}

// logf forwards to Options.Logf when configured.
func (e *Engine) logf(format string, args ...any) {
	if e.opts.Logf != nil {
		e.opts.Logf(format, args...)
	}
}

// shortKey abbreviates a content address for log lines.
func shortKey(key string) string {
	if len(key) > 12 {
		return key[:12]
	}
	return key
}

// Executed returns how many simulations the engine actually started
// (cache hits and coalesced waits do not count).
func (e *Engine) Executed() uint64 { return e.executed.Value() }

// Batched returns how many jobs were resolved by the lock-step batch
// kernel.
func (e *Engine) Batched() uint64 { return e.batched.Value() }

// BatchFallbacks returns how many batch units fell back to scalar
// per-job execution after a batch-level error.
func (e *Engine) BatchFallbacks() uint64 { return e.batchFallback.Value() }

// FirstError returns the first failed job's error, or nil.
func FirstError(rs []JobResult) error {
	for i := range rs {
		if rs[i].Err != "" {
			return fmt.Errorf("job %s (%s on %v): %s",
				shortKey(rs[i].Key), rs[i].Job.Config.Name, rs[i].Job.Workloads, rs[i].Err)
		}
	}
	return nil
}

// Flatten concatenates the per-job results in job order, returning the
// first error encountered instead if any job failed.
func Flatten(rs []JobResult) ([]core.Result, error) {
	if err := FirstError(rs); err != nil {
		return nil, err
	}
	var out []core.Result
	for i := range rs {
		out = append(out, rs[i].Results...)
	}
	return out, nil
}
