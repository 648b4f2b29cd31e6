package runner

import (
	"encoding/json"
	"fmt"
	"regexp"
	"slices"

	"catch/internal/core"
	"catch/internal/fault"
	"catch/internal/memo"
	"catch/internal/stats"
)

// CacheStats counts cache traffic. Coalesced requests waited on an
// identical in-flight computation instead of starting their own.
type CacheStats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Coalesced uint64 `json:"coalesced"`
	DiskHits  uint64 `json:"diskHits"`
	BadDisk   uint64 `json:"badDisk"` // corrupted on-disk entries treated as misses
	// DiskErrs counts disk I/O failures (reads and writes); enough of
	// them in a row trips the breaker into memory-only mode.
	DiskErrs uint64 `json:"diskErrs"`
	// Quarantined counts corrupt entries renamed aside to *.corrupt so
	// they are inspectable and never re-read.
	Quarantined uint64 `json:"quarantined"`
}

// CacheOptions configures a Cache beyond the directory.
type CacheOptions struct {
	// Dir is the persistence directory; empty means memory-only.
	Dir string
	// FS is the filesystem the disk layer goes through; nil means the
	// real one. Chaos tests substitute fault.InjectFS.
	FS fault.FS
	// Breaker, when non-nil, guards the disk layer: consecutive I/O
	// failures trip it and the cache degrades to memory-only until a
	// half-open probe succeeds. nil leaves the disk layer unguarded.
	Breaker *fault.Breaker
}

// Cache is a content-addressed memo of job results keyed by Job.Key.
// Entries live in memory and, when a directory is configured, as one
// JSON file per key so a later process can reuse them. Duplicate
// concurrent requests for one key are coalesced onto a single
// computation.
type Cache struct {
	mem     memo.Group[string, []core.Result]
	disk    *memo.Disk
	breaker *fault.Breaker

	hits      stats.AtomicCounter
	misses    stats.AtomicCounter
	coalesced stats.AtomicCounter
	diskHits  stats.AtomicCounter
	badDisk   stats.AtomicCounter
}

// NewCache builds a cache. dir may be empty for a memory-only cache;
// otherwise it is created on first persist.
func NewCache(dir string) *Cache {
	return NewCacheOpts(CacheOptions{Dir: dir})
}

// NewCacheOpts builds a cache with an explicit filesystem and breaker.
func NewCacheOpts(o CacheOptions) *Cache {
	return &Cache{disk: memo.NewDisk(o.Dir, o.FS, o.Breaker), breaker: o.Breaker}
}

// Breaker returns the disk-layer breaker (nil when unguarded).
func (c *Cache) Breaker() *fault.Breaker { return c.breaker }

// Stats snapshots the counters.
func (c *Cache) Stats() CacheStats {
	return CacheStats{
		Hits:        c.hits.Value(),
		Misses:      c.misses.Value(),
		Coalesced:   c.coalesced.Value(),
		DiskHits:    c.diskHits.Value(),
		BadDisk:     c.badDisk.Value(),
		DiskErrs:    c.disk.Errs(),
		Quarantined: c.disk.Quarantined(),
	}
}

// HitRate returns hits+coalesced over all requests.
func (s CacheStats) HitRate() float64 {
	total := s.Hits + s.Misses + s.Coalesced
	return stats.Ratio(s.Hits+s.Coalesced, total)
}

// Get returns the cached results for key (memory first, then disk)
// without computing anything. An empty entry is never returned as a
// hit: a quarantine racing a concurrent read can briefly surface a
// result-less record, and serving it would look like a successful
// lookup with no data.
func (c *Cache) Get(key string) ([]core.Result, bool) {
	if rs, ok := c.GetMem(key); ok {
		return rs, true
	}
	if rs, ok := c.GetDisk(key); ok {
		c.mem.Set(key, rs)
		return rs, true
	}
	return nil, false
}

// GetCounted is Get with hit/miss accounting. It is for callers that
// resolve a miss by computing outside the cache's singleflight — the
// batch scheduler's unit pre-check — so the traffic counters tell the
// same story in batch and scalar mode. Plain Get stays uncounted for
// probes that do not imply a computation (the cluster tier walk, the
// results endpoint).
func (c *Cache) GetCounted(key string) ([]core.Result, bool) {
	if rs, ok := c.GetMem(key); ok {
		c.hits.Inc()
		return rs, true
	}
	if rs, ok := c.GetDisk(key); ok {
		c.hits.Inc()
		c.diskHits.Inc()
		c.mem.Set(key, rs)
		return rs, true
	}
	c.misses.Inc()
	return nil, false
}

// GetMem returns the in-memory entry for key only, never touching the
// disk layer. It is the top tier of the cluster's tiered read path.
func (c *Cache) GetMem(key string) ([]core.Result, bool) {
	rs, ok := c.mem.Peek(key)
	if !ok || len(rs) == 0 {
		return nil, false
	}
	return rs, true
}

// GetDisk reads the on-disk entry for key only, without populating the
// memory layer (tier promotion is the caller's decision). Disk health
// feeds the cache's breaker exactly as in the combined path. A corrupt
// entry is quarantined — renamed to *.corrupt on first detection so it
// is kept for inspection but never re-read — and treated as a miss,
// never a failure: the job simply recomputes and persists a fresh
// entry.
func (c *Cache) GetDisk(key string) ([]core.Result, bool) {
	if !ValidKey(key) {
		return nil, false
	}
	name := fileName(key)
	raw, ok := c.disk.Read(name)
	if !ok {
		return nil, false
	}
	var rs []core.Result
	if err := json.Unmarshal(raw, &rs); err != nil || len(rs) == 0 {
		c.badDisk.Inc()
		c.disk.Quarantine(name)
		return nil, false
	}
	return rs, true
}

// Put inserts an externally computed result (a peer fetch or a
// replica fill) into both layers, exactly as a local compute would
// have. Empty result sets are rejected: an entry with no results is
// indistinguishable from the quarantine race Get guards against.
func (c *Cache) Put(key string, rs []core.Result) {
	c.PutMem(key, rs)
	c.PutDisk(key, rs)
}

// PutMem inserts into the memory layer only (tier promotion).
func (c *Cache) PutMem(key string, rs []core.Result) {
	if len(rs) == 0 || !ValidKey(key) {
		return
	}
	c.mem.Set(key, rs)
}

// PutDisk persists to the disk layer only (tier promotion; breaker
// rules as in the compute path — persistence failures never surface).
func (c *Cache) PutDisk(key string, rs []core.Result) {
	if len(rs) == 0 || !ValidKey(key) {
		return
	}
	c.disk.Write(fileName(key), func() ([]byte, error) { return json.Marshal(rs) })
}

// Keys manifests every key this cache holds — the union of the memory
// layer and the on-disk entries — sorted, so two nodes can diff their
// manifests deterministically during anti-entropy repair. With the
// breaker open (or on a listing error) the manifest degrades to the
// memory layer alone, which only makes repair conservative, never
// wrong: a key missing from a manifest is re-filled, and fills are
// idempotent under content addressing.
func (c *Cache) Keys() []string {
	keys := c.mem.Keys()
	for _, key := range c.disk.List(".json") {
		if ValidKey(key) {
			keys = append(keys, key)
		}
	}
	slices.Sort(keys)
	return slices.Compact(keys)
}

// Do returns the results for key, computing them at most once across
// all concurrent callers. cached reports whether the result came from
// the cache (or from another caller's in-flight computation) rather
// than from this caller's compute. Errors are not cached.
func (c *Cache) Do(key string, compute func() ([]core.Result, error)) (rs []core.Result, cached bool, err error) {
	computed := false
	rs, out, err := c.mem.Do(key, func() ([]core.Result, error) {
		if rs, ok := c.GetDisk(key); ok {
			c.hits.Inc()
			c.diskHits.Inc()
			return rs, nil
		}
		c.misses.Inc()
		computed = true
		return compute()
	})
	switch {
	case out == memo.Hit:
		c.hits.Inc()
	case out == memo.Coalesced:
		c.coalesced.Inc()
	case computed && err == nil:
		c.PutDisk(key, rs)
	}
	return rs, !computed, err
}

var keyPattern = regexp.MustCompile(`^[0-9a-f]{16,64}$`)

// ValidKey reports whether key has the shape of a content address (a
// plain lowercase-hex digest). The HTTP layers validate client-supplied
// keys with it up front so a malformed key is a 400, never a disk probe
// or a 500.
func ValidKey(key string) bool { return keyPattern.MatchString(key) }

// fileName maps a valid key to its on-disk entry. Callers check
// ValidKey first: the HTTP layer passes client-supplied keys through,
// and only a plain hex key may name a file.
func fileName(key string) string { return key + ".json" }

// String renders the counters for human-readable summaries.
func (s CacheStats) String() string {
	return fmt.Sprintf("hits %d (disk %d)  misses %d  coalesced %d  corrupt %d (quarantined %d)  disk-errs %d  hit-rate %.1f%%",
		s.Hits, s.DiskHits, s.Misses, s.Coalesced, s.BadDisk, s.Quarantined, s.DiskErrs, 100*s.HitRate())
}
