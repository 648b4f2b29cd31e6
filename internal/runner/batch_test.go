package runner

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"catch/internal/cache"
	"catch/internal/config"
)

// batchTestJobs is a small real sweep with everything the scheduler
// must route correctly: three configs sharing two workloads (two
// batchable groups of three), plus an MP job that must stay scalar.
func batchTestJobs() []Job {
	base := config.BaselineExclusive()
	llc6 := config.WithLatencyDelta(base, cache.HitLLC, 6, "baseline-excl+llc6")
	llc12 := config.WithLatencyDelta(base, cache.HitLLC, 12, "baseline-excl+llc12")
	grid := Grid{
		Configs:   []config.SystemConfig{base, llc6, llc12},
		Workloads: []string{"mcf", "hmmer"},
		Insts:     3_000,
		Warmup:    1_000,
	}
	jobs := grid.Jobs()
	mp := base
	mp.Cores = 2
	return append(jobs, MPJob(mp, []string{"mcf", "hmmer"}, 2_000, 500))
}

// TestBatchEngineMatchesScalar is the scheduler-level determinism
// anchor: a batch engine's Flattened output must be byte-identical to
// the scalar engine's over a mixed ST/MP sweep, while actually
// batching the batchable jobs.
func TestBatchEngineMatchesScalar(t *testing.T) {
	jobs := batchTestJobs()
	scalarEng := New(Options{Workers: 2, Cache: NewCache("")})
	want, err := Flatten(scalarEng.Run(context.Background(), jobs))
	if err != nil {
		t.Fatal(err)
	}
	batchEng := New(Options{Workers: 2, Cache: NewCache(""), Batch: true})
	got, err := Flatten(batchEng.Run(context.Background(), jobs))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("batch engine results differ from scalar engine results")
	}
	if n := batchEng.Batched(); n != 6 {
		t.Errorf("batched %d jobs, want the 6 single-thread jobs", n)
	}
	if n := batchEng.BatchFallbacks(); n != 0 {
		t.Errorf("batch fallbacks = %d, want 0", n)
	}
}

// TestPlanUnits pins the grouping policy: first-appearance order,
// splitting at batchSize (8), MP jobs as singletons, and exact
// passthrough when batching is off.
func TestPlanUnits(t *testing.T) {
	cfg := config.BaselineExclusive()
	jobs := []Job{
		STJob(cfg, "mcf", 100, 10),                    // 0: group A
		STJob(cfg, "hmmer", 100, 10),                  // 1: group B
		MPJob(cfg, []string{"mcf", "hmmer"}, 100, 10), // 2: always scalar
		STJob(cfg, "mcf", 200, 10),                    // 3: own group (insts differ)
	}
	for len(jobs) < 13 {
		jobs = append(jobs, STJob(cfg, "mcf", 100, 10)) // 4-12: group A, 10 jobs in all
	}
	scalar := New(Options{Workers: 1})
	if got := scalar.planUnits(jobs); len(got) != len(jobs) {
		t.Fatalf("scalar planUnits made %d units, want %d singletons", len(got), len(jobs))
	}

	batch := New(Options{Workers: 1, Batch: true})
	got := batch.planUnits(jobs)
	want := [][]int{{0, 4, 5, 6, 7, 8, 9, 10}, {11, 12}, {1}, {2}, {3}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("planUnits = %v, want %v (group A split at batchSize=8)", got, want)
	}
}

// TestBatchCacheFanOut proves batch results land under the same
// per-job content-addressed keys as scalar execution, in memory and on
// disk, so a fresh engine re-running the sweep over the same cache
// directory recomputes nothing.
func TestBatchCacheFanOut(t *testing.T) {
	jobs := batchTestJobs()
	dir := t.TempDir()
	c := NewCache(dir)
	eng := New(Options{Workers: 2, Cache: c, Batch: true})
	want := flatBytes(t, eng.Run(context.Background(), jobs))
	onDisk := NewCache(dir)
	for i := range jobs {
		key := jobs[i].Key()
		if _, ok := c.Get(key); !ok {
			t.Errorf("job %d (%v) missing from the cache after a batch run", i, jobs[i].Workloads)
		}
		if _, ok := onDisk.GetDisk(key); !ok {
			t.Errorf("job %d (%v) not persisted after a batch run", i, jobs[i].Workloads)
		}
	}

	// Re-run: the same sweep through a fresh engine over the same cache
	// directory must execute nothing.
	resumed := New(Options{Workers: 2, Cache: NewCache(dir), Batch: true})
	out := resumed.Run(context.Background(), jobs)
	if n := resumed.Executed(); n != 0 {
		t.Errorf("resumed run executed %d simulations, want 0", n)
	}
	for i := range out {
		if !out[i].Cached {
			t.Errorf("resumed job %d not served from the cache", i)
		}
	}
	if string(flatBytes(t, out)) != string(want) {
		t.Error("re-run output differs from the first run")
	}
}

// TestBatchFallbackToScalar proves a unit-level failure degrades to
// per-job scalar execution with per-job verdicts instead of failing
// the whole unit: three jobs on an unregistered workload group into one
// unit, the batch validation rejects it, and each job then reports its
// own scalar failure.
func TestBatchFallbackToScalar(t *testing.T) {
	cfg := config.BaselineExclusive()
	jobs := []Job{
		STJob(cfg, "no-such-workload", 100, 10),
		STJob(cfg, "no-such-workload", 100, 10),
		STJob(cfg, "no-such-workload", 100, 10),
		STJob(cfg, "mcf", 1_000, 100),
		STJob(cfg, "mcf", 1_000, 100),
	}
	// Distinct keys for the duplicate bad jobs are not needed: they are
	// identical jobs, which is exactly the coalescing case the scalar
	// fallback must also survive.
	eng := New(Options{Workers: 2, Cache: NewCache(""), Batch: true})
	out := eng.Run(context.Background(), jobs)
	for i := 0; i < 3; i++ {
		if out[i].Status != StatusFailed {
			t.Errorf("bad job %d: status %q, want %q", i, out[i].Status, StatusFailed)
		}
		if !strings.Contains(out[i].Err, "no-such-workload") {
			t.Errorf("bad job %d: error %q does not name the workload", i, out[i].Err)
		}
	}
	for i := 3; i < 5; i++ {
		if out[i].Status != StatusOK {
			t.Errorf("good job %d: status %q (err %q), want ok", i, out[i].Status, out[i].Err)
		}
	}
	if n := eng.BatchFallbacks(); n != 1 {
		t.Errorf("batch fallbacks = %d, want 1", n)
	}
}

// TestResolveWorkloadsReportsAll pins the satellite fix: validation
// reports every unknown name at once, not just the first.
func TestResolveWorkloadsReportsAll(t *testing.T) {
	j := MPJob(config.BaselineExclusive(), []string{"mcf", "nope1", "hmmer", "nope2"}, 100, 10)
	err := j.Validate()
	if err == nil {
		t.Fatal("Validate accepted unknown workloads")
	}
	for _, name := range []string{"nope1", "nope2"} {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not mention %q", err, name)
		}
	}
	if strings.Contains(err.Error(), "mcf") || strings.Contains(err.Error(), "hmmer") {
		t.Errorf("error %q names known workloads", err)
	}
}
