package runner

import (
	"context"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"

	"catch/internal/config"
	"catch/internal/core"
)

func oneResult(name string) []core.Result {
	return []core.Result{{Workload: name, Insts: 1}}
}

func TestCacheHitMissCounters(t *testing.T) {
	c := NewCache("")
	computes := 0
	compute := func() ([]core.Result, error) { computes++; return oneResult("a"), nil }

	if _, cached, err := c.Do("k1", compute); err != nil || cached {
		t.Fatalf("first Do: cached=%v err=%v", cached, err)
	}
	if rs, cached, err := c.Do("k1", compute); err != nil || !cached || rs[0].Workload != "a" {
		t.Fatalf("second Do: cached=%v err=%v", cached, err)
	}
	if computes != 1 {
		t.Fatalf("computed %d times", computes)
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 || s.Coalesced != 0 {
		t.Fatalf("stats = %+v", s)
	}
	if s.HitRate() != 0.5 {
		t.Fatalf("hit rate = %v", s.HitRate())
	}
}

func TestCacheCoalescesConcurrentCallers(t *testing.T) {
	c := NewCache("")
	const callers = 8
	started := make(chan struct{})
	release := make(chan struct{})
	computes := 0
	compute := func() ([]core.Result, error) {
		computes++ // single flight: only one caller runs this
		close(started)
		<-release
		return oneResult("slow"), nil
	}

	var wg sync.WaitGroup
	errs := make([]error, callers)
	go func() {
		<-started // all late arrivals must find the flight in progress
		release <- struct{}{}
	}()
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rs, _, err := c.Do("k", compute)
			if err == nil && rs[0].Workload != "slow" {
				err = fmt.Errorf("wrong result %v", rs)
			}
			errs[i] = err
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("caller %d: %v", i, err)
		}
	}
	if computes != 1 {
		t.Fatalf("computed %d times, want 1", computes)
	}
	s := c.Stats()
	if s.Misses != 1 || s.Coalesced+s.Hits != callers-1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestCacheErrorsAreNotCached(t *testing.T) {
	c := NewCache("")
	fail := true
	compute := func() ([]core.Result, error) {
		if fail {
			return nil, fmt.Errorf("boom")
		}
		return oneResult("ok"), nil
	}
	if _, _, err := c.Do("k", compute); err == nil {
		t.Fatal("error swallowed")
	}
	fail = false
	rs, cached, err := c.Do("k", compute)
	if err != nil || cached || rs[0].Workload != "ok" {
		t.Fatalf("error was cached: cached=%v err=%v", cached, err)
	}
}

func TestKeyStableAcrossFieldReordering(t *testing.T) {
	a := []byte(`{"config":{"Name":"x","Cores":1},"workloads":["mcf"],"insts":100,"warmup":50}`)
	b := []byte(`{"warmup":50,"insts":100,"workloads":["mcf"],"config":{"Cores":1,"Name":"x"}}`)
	ca, err := CanonicalJSON(a)
	if err != nil {
		t.Fatal(err)
	}
	cb, err := CanonicalJSON(b)
	if err != nil {
		t.Fatal(err)
	}
	if string(ca) != string(cb) {
		t.Fatalf("canonical forms differ:\n%s\n%s", ca, cb)
	}
	// And a real job's key round-trips through a decode/re-encode of
	// its JSON (map iteration order is randomized in Go, so this
	// exercises arbitrary orderings).
	job := STJob(config.BaselineExclusive(), "mcf", 100, 50)
	raw, _ := json.Marshal(&job)
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	reraw, _ := json.Marshal(m)
	c1, _ := CanonicalJSON(raw)
	c2, _ := CanonicalJSON(reraw)
	if string(c1) != string(c2) {
		t.Fatal("job key not stable across re-encoding")
	}
}

func TestKeyDistinguishesJobs(t *testing.T) {
	base := STJob(config.BaselineExclusive(), "mcf", 100, 50)
	seen := map[string]string{base.Key(): "base"}
	variants := map[string]Job{
		"other workload": STJob(config.BaselineExclusive(), "hmmer", 100, 50),
		"other insts":    STJob(config.BaselineExclusive(), "mcf", 200, 50),
		"other warmup":   STJob(config.BaselineExclusive(), "mcf", 100, 60),
		"other config":   STJob(config.BaselineInclusive(), "mcf", 100, 50),
	}
	for label, j := range variants {
		k := j.Key()
		if prev, dup := seen[k]; dup {
			t.Fatalf("%s collides with %s", label, prev)
		}
		seen[k] = label
	}
}

func TestCacheDiskRoundTrip(t *testing.T) {
	dir := t.TempDir()
	key := STJob(config.BaselineExclusive(), "mcf", 100, 50).Key()

	c1 := NewCache(dir)
	if _, _, err := c1.Do(key, func() ([]core.Result, error) { return oneResult("persisted"), nil }); err != nil {
		t.Fatal(err)
	}
	// A fresh cache over the same directory serves the entry without
	// computing.
	c2 := NewCache(dir)
	rs, cached, err := c2.Do(key, func() ([]core.Result, error) {
		return nil, fmt.Errorf("should not recompute")
	})
	if err != nil || !cached || rs[0].Workload != "persisted" {
		t.Fatalf("disk entry not reused: cached=%v err=%v", cached, err)
	}
	if s := c2.Stats(); s.DiskHits != 1 {
		t.Fatalf("stats = %+v", s)
	}
	if _, ok := c2.Get(key); !ok {
		t.Fatal("Get missed after disk load")
	}
}

func TestCorruptDiskEntryIsAMiss(t *testing.T) {
	dir := t.TempDir()
	key := STJob(config.BaselineExclusive(), "mcf", 100, 50).Key()
	for _, garbage := range []string{"{not json", "", "[]", `{"an":"object"}`} {
		if err := os.WriteFile(filepath.Join(dir, key+".json"), []byte(garbage), 0o644); err != nil {
			t.Fatal(err)
		}
		c := NewCache(dir)
		rs, cached, err := c.Do(key, func() ([]core.Result, error) { return oneResult("fresh"), nil })
		if err != nil || cached || rs[0].Workload != "fresh" {
			t.Fatalf("garbage %q: cached=%v err=%v rs=%v", garbage, cached, err, rs)
		}
		if s := c.Stats(); s.Misses != 1 {
			t.Fatalf("garbage %q: stats = %+v", garbage, s)
		}
	}
}

// TestCacheKeys pins the manifest the cluster's anti-entropy repair
// diffs: the union of memory and disk entries, sorted, with non-entry
// files in the cache directory ignored.
func TestCacheKeys(t *testing.T) {
	dir := t.TempDir()
	memKey := STJob(config.BaselineExclusive(), "mcf", 100, 50).Key()
	diskKey := STJob(config.BaselineExclusive(), "lbm", 100, 50).Key()

	// One entry written through the cache (mem+disk), one landed on disk
	// by another process (a replica fill before a restart), plus files a
	// manifest must never report.
	c := NewCache(dir)
	if _, _, err := c.Do(memKey, func() ([]core.Result, error) { return oneResult("m"), nil }); err != nil {
		t.Fatal(err)
	}
	raw, _ := json.Marshal(oneResult("d"))
	for name, body := range map[string]string{
		diskKey + ".json": string(raw),
		"README.md":       "not an entry",
		"UPPER.json":      "bad key",
	} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	want := []string{memKey, diskKey}
	sort.Strings(want)
	got := c.Keys()
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("Keys() = %v, want sorted %v", got, want)
	}

	// A memory-only cache still reports its entries.
	m := NewCache("")
	m.Do(memKey, func() ([]core.Result, error) { return oneResult("m"), nil })
	if got := m.Keys(); len(got) != 1 || got[0] != memKey {
		t.Fatalf("memory-only Keys() = %v", got)
	}
}

// keyPattern defines the shape of a content address; ValidKey decides
// the same language without a regular expression.
var keyPattern = regexp.MustCompile(`^[0-9a-f]{16,64}$`)

// validKeyCases sit on and around every edge of keyPattern: both
// length bounds, each character class boundary, and a newline where
// a multi-line pattern would stop.
var validKeyCases = []string{
	"", "0123456789abcdef", "0123456789abcde", strings.Repeat("f", 64), strings.Repeat("f", 65),
	strings.Repeat("0", 16) + "\n", "\n" + strings.Repeat("0", 16), "0123456789abcdeF", "0123456789abcdeg",
	"/123456789abcdef", ":123456789abcdef", "`123456789abcdef", "0123456789abcde\x00", "0123456789abcd\xc3\xa9",
	"../evil", "a/b", "UPPER", "short", STJob(config.BaselineExclusive(), "mcf", 100, 50).Key(),
}

// TestValidKeyMatchesPattern compares ValidKey with keyPattern on
// validKeyCases; FuzzValidKey does so on arbitrary strings.
func TestValidKeyMatchesPattern(t *testing.T) {
	for _, key := range validKeyCases {
		if got, want := ValidKey(key), keyPattern.MatchString(key); got != want {
			t.Errorf("ValidKey(%q) = %v, the pattern says %v", key, got, want)
		}
	}
}

// TestCacheRejectsPathTraversalKeys: a key that is not a plain hex
// digest never names a file — nothing is written anywhere under the
// cache directory's parent, and the disk layer reports a miss.
func TestCacheRejectsPathTraversalKeys(t *testing.T) {
	root := t.TempDir()
	c := NewCache(filepath.Join(root, "cache"))
	for _, key := range []string{"../evil", "a/b", "UPPER", "short"} {
		c.PutDisk(key, oneResult("x"))
		if _, ok := c.GetDisk(key); ok {
			t.Fatalf("key %q served from disk", key)
		}
	}
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			t.Errorf("key mapped to a disk file: %s", p)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestEngineCountsCacheHitsOnSweepRerun(t *testing.T) {
	cache := NewCache("")
	e := New(Options{Workers: 4, Cache: cache})
	jobs := testJobs()
	first := e.Run(context.Background(), jobs)
	if err := FirstError(first); err != nil {
		t.Fatal(err)
	}
	second := e.Run(context.Background(), jobs)
	for i := range second {
		if !second[i].Cached {
			t.Fatalf("rerun job %d missed the cache", i)
		}
	}
	s := cache.Stats()
	if s.Misses != uint64(len(jobs)) || s.Hits+s.Coalesced < uint64(len(jobs)) {
		t.Fatalf("stats = %+v", s)
	}
	// Byte-identical results out of the cache.
	a, _ := json.Marshal(first[0].Results)
	b, _ := json.Marshal(second[0].Results)
	if string(a) != string(b) {
		t.Fatal("cached rerun diverged from computed run")
	}
}
