package runner

import (
	"os"
	"path/filepath"
	"testing"

	"catch/internal/config"
	"catch/internal/core"
	"catch/internal/fault"
)

// TestCorruptEntryIsQuarantined: first detection renames the entry to
// *.corrupt (kept for inspection, never re-read) and counts it.
func TestCorruptEntryIsQuarantined(t *testing.T) {
	dir := t.TempDir()
	key := STJob(config.BaselineExclusive(), "mcf", 100, 50).Key()
	p := filepath.Join(dir, key+".json")
	if err := os.WriteFile(p, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	c := NewCache(dir)
	rs, cached, err := c.Do(key, func() ([]core.Result, error) { return oneResult("fresh"), nil })
	if err != nil || cached || rs[0].Workload != "fresh" {
		t.Fatalf("cached=%v err=%v rs=%v", cached, err, rs)
	}
	s := c.Stats()
	if s.BadDisk != 1 || s.Quarantined != 1 {
		t.Fatalf("stats = %+v", s)
	}
	if raw, err := os.ReadFile(p + ".corrupt"); err != nil || string(raw) != "{not json" {
		t.Fatalf("quarantined copy: %q, %v", raw, err)
	}
	// The recomputed entry was persisted over the old path.
	if raw, err := os.ReadFile(p); err != nil || len(raw) == 0 {
		t.Fatalf("fresh entry not rewritten: %v", err)
	}
}

// TestBreakerTripsToMemoryOnlyAndRecovers drives the cache's disk
// layer through injected read errors until the breaker opens, verifies
// the cache keeps serving (memory-only), then lets the half-open probe
// close it again once the faults heal.
func TestBreakerTripsToMemoryOnlyAndRecovers(t *testing.T) {
	dir := t.TempDir()
	inj := fault.NewInjector(fault.Plan{Seed: 1, Rules: map[fault.Kind]fault.Rule{
		fault.DiskRead:  {Prob: 1, Times: 3}, // every read fails, three times per site
		fault.DiskWrite: {Prob: 1, Times: 3}, // writes too, else stores reset the failure streak
	}})
	br := fault.NewBreaker(3, 8)
	opts := CacheOptions{Dir: dir, FS: fault.InjectFS{FS: fault.OS{}, Inj: inj}, Breaker: br}
	c := NewCacheOpts(opts)

	keys := make([]string, 3)
	for i := range keys {
		keys[i] = STJob(config.BaselineExclusive(), "mcf", int64(100+i), 50).Key()
	}
	// Three failing loads in a row trip the breaker; every Do still
	// succeeds via compute.
	for _, k := range keys {
		if _, _, err := c.Do(k, func() ([]core.Result, error) { return oneResult("computed"), nil }); err != nil {
			t.Fatal(err)
		}
	}
	if br.State() != fault.StateOpen {
		t.Fatalf("breaker %v after %d disk errors", br.State(), c.Stats().DiskErrs)
	}
	if c.Stats().DiskErrs == 0 {
		t.Fatalf("stats = %+v", c.Stats())
	}
	// Memory-only mode: a fresh key computes without touching the disk
	// (an open breaker denies the load and the store).
	k := STJob(config.BaselineExclusive(), "hmmer", 100, 50).Key()
	if _, _, err := c.Do(k, func() ([]core.Result, error) { return oneResult("m"), nil }); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, k+".json")); !os.IsNotExist(err) {
		t.Fatal("open breaker still wrote to disk")
	}
	// Memory hits keep working throughout.
	if rs, ok := c.Get(k); !ok || rs[0].Workload != "m" {
		t.Fatal("memory entry lost in memory-only mode")
	}

	// The injected faults have a budget of 3 per site, already spent on
	// the first key's retries... drive denials until the half-open probe
	// goes through against the healed disk and closes the circuit. Each
	// round uses a fresh cache over the same directory, filesystem and
	// breaker: its memory layer is empty, so every Do goes back to the
	// disk layer.
	for i := 0; br.State() != fault.StateClosed && i < 100; i++ {
		NewCacheOpts(opts).Do(keys[0], func() ([]core.Result, error) { return oneResult("computed"), nil })
	}
	if br.State() != fault.StateClosed {
		t.Fatalf("breaker never recovered: %v (trips %d)", br.State(), br.Trips())
	}
}
