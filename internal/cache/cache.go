// Package cache implements the on-die cache substrate: set-associative
// caches with LRU replacement, write-back/write-allocate semantics,
// in-flight fill timestamps, and the multi-level hierarchy (non-
// inclusive L2 with either an inclusive or an exclusive LLC) that the
// paper's baseline and CATCH configurations are built from.
package cache

// PrefetchID labels who installed a line, for accuracy/timeliness
// accounting.
type PrefetchID uint8

// Prefetcher identities.
const (
	PfNone   PrefetchID = iota
	PfStride            // baseline L1 stride prefetcher
	PfStream            // baseline L2 multi-stream prefetcher
	PfTACT              // TACT data prefetchers (cross/deep-self/feeder)
	PfCode              // TACT code run-ahead
	PfOracle            // oracle criticality prefetcher (§III-C)
)

// Line is one cache line's metadata.
type Line struct {
	Tag       uint64
	FillTime  int64 // cycle at which the data becomes usable
	LastUse   int64 // LRU timestamp
	OriginLat int32 // latency the installing fill paid (timeliness ref)
	Valid     bool
	Dirty     bool
	Prefetch  PrefetchID // non-zero until first demand use
	Meta      uint8      // replacement-policy state (e.g. RRPV)
}

// Config sizes a cache.
type Config struct {
	Name   string
	Size   uint64 // bytes
	Ways   int
	HitLat int64 // load-to-use round-trip latency for a hit at this level
}

// Stats counts per-cache events.
type Stats struct {
	Lookups, Hits, Misses uint64
	Fills, Evictions      uint64
	DirtyEvictions        uint64
	Invalidations         uint64
	Writes                uint64 // demand stores hitting this cache
	PrefetchFills         uint64
	PrefetchUsed          uint64 // prefetched lines that saw a demand hit
	PrefetchEvictedUnused uint64
}

// Cache is a single set-associative write-back cache.
type Cache struct {
	Cfg    Config //catch:nosnap construction-time geometry; RestoreFrom asserts shape via Expect
	Sets   int
	lines  []Line
	tick   int64
	policy Policy // nil = built-in LRU
	// setMask is Sets-1 when Sets is a power of two: the per-access set
	// index is then a mask instead of a modulo. Every registered L1, L2
	// and LLC geometry has a power-of-two set count (the 6.5MB, 13-way
	// LLC has 8192 sets), so a zero mask with Sets > 1, which selects
	// the modulo fallback, serves only custom geometries.
	setMask uint64 //catch:nosnap derived from Sets at construction
	// plan, when non-nil, holds prewarmed lines not yet placed; Probe,
	// Lookup and Fill place a set's share before they look at the set
	// (see prewarmPlan).
	plan *prewarmPlan
	// owner holds the pooled array that lines is cut from (nil for a
	// cache New built); Release hands it back.
	owner *lineArray //catch:nosnap storage, not state: the image holds the lines themselves
	Stats Stats
}

// SetPolicy installs a replacement policy by name ("lru", "srrip",
// "brrip", "drrip"); unknown or empty names keep the built-in LRU.
func (c *Cache) SetPolicy(name string) {
	c.policy = PolicyByName(name, c.Sets)
}

// PolicyName reports the active replacement policy.
func (c *Cache) PolicyName() string {
	if c.policy == nil {
		return "lru"
	}
	return c.policy.Name()
}

// New builds a cache from cfg over a line array of its own. The set
// count is Size/(Ways*64).
func New(cfg Config) *Cache {
	c := newCache(cfg)
	c.lines = make([]Line, c.Sets*c.Cfg.Ways)
	return c
}

// newCache returns a cache of cfg's geometry with no line array.
func newCache(cfg Config) *Cache {
	if cfg.Ways <= 0 {
		cfg.Ways = 1
	}
	sets := int(cfg.Size / (uint64(cfg.Ways) * 64))
	if sets <= 0 {
		sets = 1
	}
	c := &Cache{Cfg: cfg, Sets: sets}
	if sets&(sets-1) == 0 {
		c.setMask = uint64(sets - 1)
	}
	return c
}

// lineTag converts an address to the line-granular tag used internally.
func lineTag(addr uint64) uint64 { return addr >> 6 }

// setIndex maps a tag to its set (mask when the set count is a power
// of two, modulo otherwise — both give tag mod Sets).
func (c *Cache) setIndex(tag uint64) int {
	if c.setMask != 0 || c.Sets == 1 {
		return int(tag & c.setMask)
	}
	return int(tag % uint64(c.Sets))
}

func (c *Cache) set(tag uint64) []Line {
	s := c.setIndex(tag)
	return c.lines[s*c.Cfg.Ways : (s+1)*c.Cfg.Ways]
}

// Probe returns the line holding addr without touching LRU state or
// statistics, or nil on a miss. Used by oracle studies and prefetch
// filtering.
//
//catch:hotpath
func (c *Cache) Probe(addr uint64) *Line {
	tag := lineTag(addr)
	if c.plan != nil {
		c.placeSet(c.setIndex(tag))
	}
	set := c.set(tag)
	for i := range set {
		if set[i].Valid && set[i].Tag == tag {
			return &set[i]
		}
	}
	return nil
}

// Lookup searches for addr, updating LRU state and hit/miss counters.
//
//catch:hotpath
func (c *Cache) Lookup(addr uint64) (*Line, bool) {
	c.Stats.Lookups++
	tag := lineTag(addr)
	if c.plan != nil {
		c.placeSet(c.setIndex(tag))
	}
	set := c.set(tag)
	for i := range set {
		if set[i].Valid && set[i].Tag == tag {
			c.Stats.Hits++
			c.tick++
			set[i].LastUse = c.tick
			if c.policy != nil {
				c.policy.OnHit(set, i)
			}
			return &set[i], true
		}
	}
	c.Stats.Misses++
	return nil, false
}

// Victim describes a line displaced by Fill.
type Victim struct {
	Addr  uint64
	Valid bool
	Dirty bool
}

// Fill installs addr, returning the displaced victim (if any). fillTime
// is the cycle at which the new line's data arrives; originLat records
// what the fill cost (for timeliness accounting of prefetches).
//
//catch:hotpath
func (c *Cache) Fill(addr uint64, fillTime int64, originLat int64, dirty bool, pf PrefetchID) Victim {
	tag := lineTag(addr)
	setIdx := c.setIndex(tag)
	if c.plan != nil {
		c.placeSet(setIdx)
	}
	set := c.lines[setIdx*c.Cfg.Ways : (setIdx+1)*c.Cfg.Ways]
	c.Stats.Fills++
	if pf != PfNone {
		c.Stats.PrefetchFills++
	}

	// One pass finds a re-fill match (e.g. writeback merging), the first
	// invalid way, and the built-in LRU victim; the policy is consulted
	// only when every way is valid and none matches.
	victimIdx, invalidIdx, lruIdx := -1, -1, 0
	lru := int64(1<<62 - 1)
	for i := range set {
		l := &set[i]
		if l.Valid && l.Tag == tag {
			victimIdx = i
			break
		}
		if !l.Valid {
			if invalidIdx < 0 {
				invalidIdx = i
			}
			continue
		}
		if l.LastUse < lru {
			lru, lruIdx = l.LastUse, i
		}
	}
	if victimIdx < 0 {
		victimIdx = invalidIdx
	}
	if victimIdx < 0 {
		if c.policy != nil {
			victimIdx = c.policy.Victim(set, setIdx)
		} else {
			victimIdx = lruIdx
		}
	}

	var v Victim
	old := &set[victimIdx]
	if old.Valid && old.Tag != tag {
		v = Victim{Addr: old.Tag << 6, Valid: true, Dirty: old.Dirty}
		c.Stats.Evictions++
		if old.Dirty {
			c.Stats.DirtyEvictions++
		}
		if old.Prefetch != PfNone {
			c.Stats.PrefetchEvictedUnused++
		}
	}
	if old.Valid && old.Tag == tag {
		dirty = dirty || old.Dirty
	}
	c.tick++
	*old = Line{
		Tag:       tag,
		FillTime:  fillTime,
		LastUse:   c.tick,
		OriginLat: int32(originLat),
		Valid:     true,
		Dirty:     dirty,
		Prefetch:  pf,
	}
	if c.policy != nil {
		c.policy.OnFill(set, victimIdx, setIdx)
	}
	return v
}

// MarkDirty sets the dirty bit of an existing line (demand store hit).
//
//catch:hotpath
func (c *Cache) MarkDirty(addr uint64) bool {
	if l := c.Probe(addr); l != nil {
		l.Dirty = true
		c.Stats.Writes++
		return true
	}
	return false
}

// Invalidate removes addr from the cache, returning whether it was
// present and dirty.
func (c *Cache) Invalidate(addr uint64) (present, dirty bool) {
	if l := c.Probe(addr); l != nil {
		c.Stats.Invalidations++
		l.Valid = false
		return true, l.Dirty
	}
	return false, false
}

// NoteDemandUse clears the prefetch marker on first demand hit,
// crediting the prefetcher.
//
//catch:hotpath
func (c *Cache) NoteDemandUse(l *Line) {
	if l.Prefetch != PfNone {
		c.Stats.PrefetchUsed++
		l.Prefetch = PfNone
	}
}

// HitRate returns hits/lookups.
func (c *Cache) HitRate() float64 {
	if c.Stats.Lookups == 0 {
		return 0
	}
	return float64(c.Stats.Hits) / float64(c.Stats.Lookups)
}

// ResetStats zeroes the statistics (e.g. after warmup).
func (c *Cache) ResetStats() { c.Stats = Stats{} }
