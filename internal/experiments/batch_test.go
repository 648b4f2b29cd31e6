package experiments

import (
	"context"
	"runtime"
	"testing"
	"unsafe"

	"catch/internal/cache"
	"catch/internal/runner"
	"catch/internal/trace"
)

// TestBatchSmokeFig13 is the end-to-end gate for the lock-step kernel:
// the full fig13 experiment executed through a batching engine must
// render byte-for-byte the same tables as the scalar golden run — the
// same committed hash — while actually taking the batch path.
func TestBatchSmokeFig13(t *testing.T) {
	eng := runner.New(runner.Options{
		Workers: runtime.GOMAXPROCS(0),
		Cache:   runner.NewCache(""),
		Batch:   true,
	})
	UseEngine(eng)
	defer UseEngine(nil)
	if got := fig13Hash(t, goldenFig13Budget); got != goldenFig13Hash {
		t.Errorf("batched fig13 output hash diverged from the scalar golden run:\n got %s\nwant %s",
			got, goldenFig13Hash)
	}
	if eng.Batched() == 0 {
		t.Error("engine batched no jobs; the smoke test exercised only the scalar path")
	}
	if n := eng.BatchFallbacks(); n != 0 {
		t.Errorf("engine fell back to scalar %d times, want 0", n)
	}
}

// TestFig13RerunOverCacheExecutesNothing is what continuing an
// interrupted catchexp run relies on: fig13 through an engine over a
// cache directory, then through a fresh engine over the same directory,
// renders the golden tables both times, and the second run simulates
// nothing.
func TestFig13RerunOverCacheExecutesNothing(t *testing.T) {
	dir := t.TempDir()
	defer UseEngine(nil)
	for run := 0; run < 2; run++ {
		eng := runner.New(runner.Options{
			Workers: runtime.GOMAXPROCS(0),
			Cache:   runner.NewCache(dir),
		})
		UseEngine(eng)
		if got := fig13Hash(t, goldenFig13Budget); got != goldenFig13Hash {
			t.Errorf("run %d: fig13 output hash diverged from the golden run:\n got %s\nwant %s",
				run, got, goldenFig13Hash)
		}
		switch n := eng.Executed(); {
		case run == 0 && n == 0:
			t.Fatal("first run executed nothing; the cache directory was not empty")
		case run == 1 && n != 0:
			t.Errorf("re-run over the same cache executed %d simulations, want 0", n)
		}
	}
}

// TestBatchRunKeepsNoTrace pins that the lock-step path streams its
// instructions from the workload generator: a batching engine that has
// run 2 configs × 8 workloads at 60k instructions after 30k, and is
// still referenced, holds less than one recording of that budget
// (32 B per instruction, 2.9 MB) more live heap than before it was
// built. An engine that kept its recordings would hold all eight, about
// 24 MB. The LLC arrays the Run released stay in the process-wide pool,
// and in race builds they are heap, so the growth of what the pool
// holds on the heap does not count. Live heap is process-wide, so the
// test must not run in parallel with others.
func TestBatchRunKeepsNoTrace(t *testing.T) {
	const insts, warmup = 60_000, 30_000
	var jobs []runner.Job
	for _, c := range []string{"nol2-6.5", "nol2-6.5-catch"} {
		cfg, _ := ConfigByName(c)
		for _, w := range controlWorkloads[:8] {
			jobs = append(jobs, runner.STJob(cfg, w, insts, warmup))
		}
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	pooledBefore := cache.PoolHeapBytes()
	eng := runner.New(runner.Options{Workers: 2, Batch: true})
	out := eng.Run(context.Background(), jobs)
	runtime.GC()
	runtime.ReadMemStats(&after)
	pooled := cache.PoolHeapBytes() - pooledBefore
	runtime.KeepAlive(eng)
	for _, r := range out {
		if r.Err != "" {
			t.Fatalf("%s: %s", r.Job.Workloads[0], r.Err)
		}
	}
	if n := eng.Batched(); n != uint64(len(jobs)) {
		t.Fatalf("engine batched %d of %d jobs", n, len(jobs))
	}
	grown := int64(after.HeapAlloc) - int64(before.HeapAlloc) - pooled
	t.Logf("live heap grew %.2f MB over the Run, not counting %.2f MB of pooled LLC arrays", float64(grown)/1e6, float64(pooled)/1e6)
	if limit := int64(unsafe.Sizeof(trace.Inst{})) * (insts + warmup); grown >= limit {
		t.Errorf("live heap grew %.1f MB over a batch Run, want under one recording (%.1f MB)",
			float64(grown)/1e6, float64(limit)/1e6)
	}
}
