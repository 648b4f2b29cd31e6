package experiments

import (
	"runtime"
	"testing"

	"catch/internal/runner"
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
