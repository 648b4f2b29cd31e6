package runner

import (
	"context"
	"encoding/json"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"catch/internal/config"
	"catch/internal/core"
	"catch/internal/fault"
)

// flattenJSON runs jobs through e and returns the Flatten output as
// canonical bytes — the unit of comparison for every determinism
// claim in this file.
func flattenJSON(t *testing.T, e *Engine, ctx context.Context, jobs []Job) []byte {
	t.Helper()
	return flatBytes(t, e.Run(ctx, jobs))
}

// flatBytes returns the Flatten output of rs as JSON, failing the test
// if any job failed.
func flatBytes(t *testing.T, rs []JobResult) []byte {
	t.Helper()
	flat, err := Flatten(rs)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(flat)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestChaosDeterminismUnderFaults is the headline invariant: a seeded
// fault schedule (disk errors, corrupt entries, transient exec
// failures, panics, artificial slowness) over a real small sweep
// produces byte-identical Flatten output to the fault-free run,
// because every injected fault is transient and the retry/quarantine/
// breaker machinery recovers it. Each seed runs once through the
// scalar scheduler and once through the batch scheduler, whose units
// fall back to scalar execution when a fault hits them.
func TestChaosDeterminismUnderFaults(t *testing.T) {
	jobs := testJobs()
	ref := flattenJSON(t, New(Options{Workers: 2}), context.Background(), jobs)

	var fallbacks uint64
	for _, seed := range []uint64{1, 7, 42} {
		for _, batch := range []bool{false, true} {
			inj := fault.NewInjector(fault.Plan{Seed: seed, Rules: map[fault.Kind]fault.Rule{
				fault.DiskRead:  {Prob: 0.5},
				fault.DiskWrite: {Prob: 0.5},
				fault.Corrupt:   {Prob: 0.5},
				fault.Exec:      {Prob: 0.5},
				fault.Panic:     {Prob: 0.3},
				fault.Slow:      {Prob: 0.5, Delay: time.Millisecond},
			}})
			cache := NewCacheOpts(CacheOptions{
				Dir:     t.TempDir(),
				FS:      fault.InjectFS{FS: fault.OS{}, Inj: inj},
				Breaker: fault.NewBreaker(3, 4),
			})
			e := New(Options{
				Workers: 3, Cache: cache, Retries: 3, Fault: inj, Batch: batch,
				Backoff: fault.Backoff{Base: 50 * time.Microsecond, Seed: seed},
			})
			got := flattenJSON(t, e, context.Background(), jobs)
			if string(got) != string(ref) {
				t.Fatalf("seed %d, batch %v: output under faults diverged from fault-free run", seed, batch)
			}
			if inj.TotalInjected() == 0 {
				t.Fatalf("seed %d, batch %v: the chaos run injected nothing", seed, batch)
			}
			fallbacks += e.BatchFallbacks()
		}
	}
	if fallbacks == 0 {
		t.Fatal("no fault hit a batch unit: the batch fallback path went untested")
	}
}

// TestChaosKillResumeCycle: phase 1 runs under faults (every job
// panics once) and is killed mid-sweep; phase 2 re-runs the sweep
// fault-free through a fresh engine over the same cache directory and
// executes exactly the remaining jobs, with the full sweep
// byte-identical to a clean run.
func TestChaosKillResumeCycle(t *testing.T) {
	jobs := testJobs()
	ref := flattenJSON(t, New(Options{Workers: 2}), context.Background(), jobs)

	cacheDir := filepath.Join(t.TempDir(), "cache")

	// Phase 1: chaos + kill.
	inj := fault.NewInjector(fault.Plan{Seed: 11, Rules: map[fault.Kind]fault.Rule{
		fault.Panic:    {Prob: 1}, // every job's first attempt panics
		fault.DiskRead: {Prob: 0.5},
	}})
	e1 := New(Options{Workers: 1, Cache: NewCache(cacheDir), Retries: 2, Fault: inj})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var sims atomic.Int32
	inner := e1.simulate
	e1.simulate = func(j *Job) ([]core.Result, error) {
		rs, err := inner(j)
		if sims.Add(1) == 2 {
			cancel() // the "kill": the first job is already cached
		}
		return rs, err
	}
	first := e1.Run(ctx, jobs)
	if got := inj.Injected(fault.Panic); got < 2 {
		t.Fatalf("phase 1 injected %d panics, want >= 2", got)
	}
	var done int
	for i := range first {
		switch first[i].Status {
		case StatusOK:
			done++
		case StatusCanceled:
		default:
			t.Fatalf("phase 1 job %d: status %q err %q", i, first[i].Status, first[i].Err)
		}
	}
	if done == 0 || done == len(jobs) {
		t.Fatalf("kill was not mid-sweep: %d/%d done", done, len(jobs))
	}

	// Phase 2: clean re-run in a "new process" over the same cache.
	if n := len(NewCache(cacheDir).Keys()); n != done {
		t.Fatalf("cache holds %d results, phase 1 reported %d done", n, done)
	}
	e2 := New(Options{Workers: 2, Cache: NewCache(cacheDir)})
	second := e2.Run(context.Background(), jobs)
	if string(flatBytes(t, second)) != string(ref) {
		t.Fatal("resumed sweep diverged from the clean run")
	}
	if exec := e2.Executed(); exec != uint64(len(jobs)-done) {
		t.Fatalf("phase 2 executed %d jobs, want exactly the %d remaining", exec, len(jobs)-done)
	}
	for i := range first {
		if first[i].Status == StatusOK && !second[i].Cached {
			t.Fatalf("job %d finished in phase 1 but was not served from the cache", i)
		}
	}
}

// TestChaosHangRecoversViaTimeout: an injected hang is bounded by the
// per-attempt timeout and the retry succeeds (the hung goroutine
// drains when the sweep's context is cancelled).
func TestChaosHangRecoversViaTimeout(t *testing.T) {
	inj := fault.NewInjector(fault.Plan{Seed: 5, Rules: map[fault.Kind]fault.Rule{
		fault.Hang: {Prob: 1},
	}})
	// The timeout bounds both the hung attempt (test runtime) and the
	// clean retry: generous enough that a loaded -race run still
	// finishes the retry inside it.
	e := New(Options{Workers: 1, Timeout: 500 * time.Millisecond, Retries: 1, Fault: inj})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel() // releases the hung goroutine
	rs := e.Run(ctx, testJobs()[:1])
	if rs[0].Err != "" || rs[0].Status != StatusOK {
		t.Fatalf("hang did not recover: %+v", rs[0])
	}
	if inj.Injected(fault.Hang) != 1 {
		t.Fatalf("hangs injected = %d", inj.Injected(fault.Hang))
	}
}

// TestChaosBatchHangFallsBack: a hang injected into a lock-step batch
// unit is bounded by the per-attempt timeout, and the unit's jobs then
// complete through the scalar path with output byte-identical to a
// fault-free run. The hang is matched to the unit's site (its first
// job's key), so it fires once, on the batch attempt, and the scalar
// run of that job finds the site healed.
func TestChaosBatchHangFallsBack(t *testing.T) {
	cfg := config.BaselineExclusive()
	jobs := []Job{
		STJob(cfg, "hmmer", tInsts, tWarmup),
		STJob(config.WithCATCH(cfg, "catch"), "hmmer", tInsts, tWarmup),
	}
	ref := flattenJSON(t, New(Options{Workers: 1}), context.Background(), jobs)

	inj := fault.NewInjector(fault.Plan{Seed: 3, Rules: map[fault.Kind]fault.Rule{
		fault.Hang: {Prob: 1, Match: jobs[0].Key()},
	}})
	e := New(Options{Workers: 1, Batch: true, Timeout: 500 * time.Millisecond, Fault: inj})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel() // releases the hung goroutine
	if got := flattenJSON(t, e, ctx, jobs); string(got) != string(ref) {
		t.Fatal("output after the batch hang diverged from the fault-free run")
	}
	if n := inj.Injected(fault.Hang); n != 1 {
		t.Fatalf("hangs injected = %d, want 1", n)
	}
	if n := e.BatchFallbacks(); n != 1 {
		t.Fatalf("batch fallbacks = %d, want 1", n)
	}
	if n := e.Batched(); n != 0 {
		t.Fatalf("batched = %d, want 0: the hung unit must not report results", n)
	}
}

// TestChaosAbandonedAttemptKeepsItsLLCArray: an attempt abandoned on
// timeout in the middle of its simulation keeps writing to its LLC
// array, so the pool must never hand that array to a later job before
// the attempt's goroutine releases it. The victim's first attempt
// builds its system and warms it up, then waits until the engine has
// timed it out and retried, and finishes its simulation while the
// retry and the later jobs run, which reuse pooled arrays; it releases
// its system only then. Under -race a shared array is a reported race;
// in any build the Run's results must be byte-identical to a
// fault-free run's.
func TestChaosAbandonedAttemptKeepsItsLLCArray(t *testing.T) {
	jobs := testJobs()
	slices.Reverse(jobs) // largest LLC first, so the reference Run leaves an array every job fits
	ref := flattenJSON(t, New(Options{Workers: 1}), context.Background(), jobs)

	victim := jobs[2].Key()
	retried := make(chan struct{})   // closed when the victim's retry starts
	abandoned := make(chan struct{}) // closed when the abandoned attempt returns
	var victimAttempts atomic.Int32
	// The timeout fires only on the first attempt, which waits for the
	// retry: generous enough that a loaded -race run finishes every
	// other attempt inside it.
	e := New(Options{Workers: 1, Timeout: time.Second, Retries: 1})
	inner := e.simulate
	e.simulate = func(j *Job) ([]core.Result, error) {
		if j.Key() != victim {
			return inner(j)
		}
		if victimAttempts.Add(1) > 1 {
			close(retried)
			return inner(j)
		}
		defer close(abandoned)
		gens, err := j.gens()
		if err != nil {
			return nil, err
		}
		sys := core.NewSystem(j.Config)
		sys.WarmupST(gens[0], j.Warmup)
		<-retried
		win := sys.BeginMeasure()
		sys.StepST(j.Insts)
		res := sys.EndMeasure(win)
		sys.Release()
		return []core.Result{res}, nil
	}
	got := flattenJSON(t, e, context.Background(), jobs)
	<-abandoned
	if string(got) != string(ref) {
		t.Fatal("results after an abandoned attempt diverged from the fault-free run")
	}
	if n := victimAttempts.Load(); n != 2 {
		t.Fatalf("victim ran %d attempts, want 2 (one abandoned, one retry)", n)
	}
	// Every job's system reuses an array (the reference Run released
	// one that every job fits), except perhaps the retry's: the
	// abandoned attempt still holds that array, and the pool may hold no
	// other that fits. The abandoned attempt's own system is built
	// outside the engine's count.
	if n, least := e.LLCReused(), uint64(len(jobs)-1); n < least || n > least+1 {
		t.Fatalf("LLC arrays reused = %d, want %d or %d", n, least, least+1)
	}
}

// TestChaosLLCPoolUnderGCPressure: several goroutines run one-job Runs
// at once on one engine, as concurrent catchd /v1/runs do, while the
// GC runs all but continuously (GOGC 1 and forced collections). Before
// each attempt the job also builds a system, warms it and drops it
// without Release, as a panicked attempt leaves its system, so
// finalizers unmap those arrays while other systems run over pooled
// ones. A finalizer that unmapped an array still in use would fault
// the process, and an array handed to two systems at once would make
// results diverge: every Run must be byte-identical to a sequential
// run's. The pool is process-wide, so the test must not run in
// parallel with others.
func TestChaosLLCPoolUnderGCPressure(t *testing.T) {
	jobs := testJobs()
	want := make([]string, len(jobs))
	for i := range jobs {
		want[i] = string(flattenJSON(t, New(Options{Workers: 1}), context.Background(), jobs[i:i+1]))
	}

	defer debug.SetGCPercent(debug.SetGCPercent(1))
	stop := make(chan struct{})
	collector := make(chan struct{})
	go func() {
		defer close(collector)
		for {
			select {
			case <-stop:
				return
			case <-time.After(time.Millisecond):
				runtime.GC()
			}
		}
	}()

	e := New(Options{Workers: 4})
	inner := e.simulate
	var dropped atomic.Int32
	e.simulate = func(j *Job) ([]core.Result, error) {
		gens, err := j.gens()
		if err != nil {
			return nil, err
		}
		core.NewSystem(j.Config).WarmupST(gens[0], j.Warmup)
		dropped.Add(1)
		return inner(j)
	}
	const goroutines, rounds = 4, 2
	got := make([][]JobResult, goroutines*rounds*len(jobs))
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < rounds*len(jobs); k++ {
				i := (g + k) % len(jobs)
				got[(g*rounds*len(jobs))+k] = e.Run(context.Background(), jobs[i:i+1])
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	<-collector

	for n, rs := range got {
		g, k := n/(rounds*len(jobs)), n%(rounds*len(jobs))
		i := (g + k) % len(jobs)
		if string(flatBytes(t, rs)) != want[i] {
			t.Fatalf("goroutine %d, Run %d (job %d): results under GC pressure differ from a sequential run's", g, k, i)
		}
	}
	if n := dropped.Load(); n != int32(len(got)) {
		t.Fatalf("%d systems dropped, want one per Run (%d)", n, len(got))
	}
}
