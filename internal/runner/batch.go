package runner

import (
	"context"
	"time"

	"catch/internal/config"
	"catch/internal/core"
)

// The batch scheduler groups a sweep's single-thread jobs by the
// (workload, insts, warmup) tuple they share, materializes that tuple's
// trace once, and steps every configuration in the group through it
// with one lock-step core.RunBatch call. Each job's result then fans
// back out to its own content-addressed cache key, so catchd, the
// cluster coordinator and a re-run over the same cache consume batch
// results exactly as scalar ones. Anything the lock-step kernel cannot
// express — multi-programmed jobs, singleton groups, or a unit that
// errors, times out or hits an injected fault — runs through the
// unchanged scalar path.

// batchKey groups jobs that can share one materialized trace.
type batchKey struct {
	workload string
	insts    int64
	warmup   int64
}

// batchEligible reports whether j can join a lock-step unit (the batch
// kernel drives exactly one core per system, and sampled jobs resolve
// through the planner instead).
func batchEligible(j *Job) bool { return len(j.Workloads) == 1 && j.Sample == nil }

// planUnits partitions the job indexes into execution units. With
// batching off every unit is a singleton, preserving the scalar
// scheduler exactly. With it on, eligible jobs group by batchKey in
// first-appearance order and oversized groups split at batchSize, so
// unit order (and therefore cache fill order) is a deterministic
// function of the job list.
func (e *Engine) planUnits(jobs []Job) [][]int {
	if !e.opts.Batch {
		units := make([][]int, len(jobs))
		for i := range units {
			units[i] = []int{i}
		}
		return units
	}
	groupOf := make(map[batchKey]int)
	var groups [][]int
	for i := range jobs {
		j := &jobs[i]
		if !batchEligible(j) {
			groups = append(groups, []int{i})
			continue
		}
		k := batchKey{workload: j.Workloads[0], insts: j.Insts, warmup: j.Warmup}
		gi, ok := groupOf[k]
		if !ok {
			groupOf[k] = len(groups)
			groups = append(groups, []int{i})
			continue
		}
		groups[gi] = append(groups[gi], i)
	}
	var units [][]int
	for _, g := range groups {
		for len(g) > batchSize {
			units = append(units, g[:batchSize])
			g = g[batchSize:]
		}
		if len(g) > 0 {
			units = append(units, g)
		}
	}
	return units
}

// runUnit resolves one unit, writing a JobResult for every index it
// covers.
func (e *Engine) runUnit(ctx context.Context, jobs []Job, unit []int, out []JobResult) {
	if len(unit) == 1 {
		i := unit[0]
		out[i] = e.runOne(ctx, jobs[i])
		return
	}
	e.runBatchUnit(ctx, jobs, unit, out)
}

// runBatchUnit resolves a multi-job unit through the lock-step kernel.
// Jobs whose keys are already cached are served from the cache; the
// rest run in one RunBatch call. A batch-level error of any kind falls
// back to running each remaining job through the scalar path, which
// owns per-job retries, timeouts and status reporting.
func (e *Engine) runBatchUnit(ctx context.Context, jobs []Job, unit []int, out []JobResult) {
	start := time.Now()
	pend := make([]int, 0, len(unit))
	for _, i := range unit {
		key := jobs[i].Key()
		if rs, ok := e.cacheGetCounted(key); ok {
			out[i] = JobResult{Job: jobs[i], Key: key, Results: rs,
				Status: StatusOK, Cached: true, Elapsed: time.Since(start)}
			e.mCompleted.Inc()
			continue
		}
		pend = append(pend, i)
	}
	switch len(pend) {
	case 0:
		return
	case 1:
		// One miss left: the scalar path's singleflight is strictly
		// better than a one-system batch.
		i := pend[0]
		out[i] = e.runOne(ctx, jobs[i])
		return
	}
	e.mInflight.Add(int64(len(pend)))
	rs, err := e.batchAttempt(ctx, jobs, pend)
	e.mInflight.Add(-int64(len(pend)))
	if err != nil {
		e.batchFallback.Inc()
		if pe, ok := err.(*PanicError); ok {
			e.logf("runner: batch unit %s panicked, falling back to scalar: %v\n%s",
				shortKey(jobs[pend[0]].Key()), pe.Value, pe.Stack)
		} else {
			e.logf("runner: batch unit %s falling back to scalar: %v",
				shortKey(jobs[pend[0]].Key()), err)
		}
		for _, i := range pend {
			out[i] = e.runOne(ctx, jobs[i])
		}
		return
	}
	elapsed := time.Since(start)
	for k, i := range pend {
		key := jobs[i].Key()
		res := rs[k]
		if e.opts.Cache != nil {
			e.opts.Cache.Put(key, res)
		}
		out[i] = JobResult{Job: jobs[i], Key: key, Results: res,
			Status: StatusOK, Elapsed: elapsed}
		e.batched.Inc()
		e.mCompleted.Inc()
		e.mJobSeconds.Observe(elapsed.Seconds())
	}
}

// batchAttempt runs one bounded lock-step execution over the pending
// jobs, returning one result set per job: it materializes the unit's
// trace and runs the lock-step kernel with the scalar attempt's fault
// hooks, panic containment and timeout. A failed attempt is not
// retried here; the caller's scalar fallback then owns the jobs. The
// injected-fault site is the first pending job's key, so chaos
// schedules hit batch units deterministically.
func (e *Engine) batchAttempt(ctx context.Context, jobs []Job, pend []int) ([][]core.Result, error) {
	for _, i := range pend {
		if err := jobs[i].Validate(); err != nil {
			return nil, err
		}
	}
	j0 := &jobs[pend[0]]
	ws, err := resolveWorkloads(j0.Workloads)
	if err != nil {
		return nil, err
	}
	w := ws[0]
	e.executed.Add(uint64(len(pend)))
	return bounded(ctx, e, j0.Key(), func() ([][]core.Result, error) {
		m, err := e.traces.Materialize(&w, j0.Warmup+j0.Insts)
		if err != nil {
			return nil, err
		}
		cfgs := make([]config.SystemConfig, len(pend))
		for k, i := range pend {
			cfgs[k] = jobs[i].Config
		}
		flat, err := core.RunBatch(m, cfgs, j0.Insts, j0.Warmup)
		if err != nil {
			return nil, err
		}
		out := make([][]core.Result, len(flat))
		for k := range flat {
			out[k] = []core.Result{flat[k]}
		}
		return out, nil
	})
}
