package cache

import (
	"fmt"
	"math"

	"catch/internal/snap"
	"catch/internal/stats"
)

// Snapshot codecs: every mutable field of a cache and a hierarchy —
// line metadata, the LRU tick, replacement-policy counters, MSHR
// occupancy and the statistics blocks — round-trips through the snap
// codec, so a restored cache is bit-for-bit the cache that was
// serialized. Geometry (set/way counts, policy kind) is written as a
// guard and checked on restore: a snapshot only restores into a cache
// built from the same configuration.

// Replacement-policy tags in the snapshot stream.
const (
	polLRU = iota
	polSRRIP
	polBRRIP
	polDRRIP
)

func policyTag(p Policy) uint8 {
	switch p.(type) {
	case nil:
		return polLRU
	case SRRIP:
		return polSRRIP
	case *BRRIP:
		return polBRRIP
	case *DRRIP:
		return polDRRIP
	}
	return polLRU
}

// SnapshotTo appends the cache's full mutable state, placing any
// deferred prewarm first so the image holds every line.
func (c *Cache) SnapshotTo(w *snap.Writer) {
	c.PlacePrewarm()
	w.U64(uint64(c.Sets))
	w.U64(uint64(c.Cfg.Ways))
	w.I64(c.tick)
	for i := range c.lines {
		l := &c.lines[i]
		w.U64(l.Tag)
		w.I64(l.FillTime)
		w.I64(l.LastUse)
		w.I32(l.OriginLat)
		w.Bool(l.Valid)
		w.Bool(l.Dirty)
		w.U8(uint8(l.Prefetch))
		w.U8(l.Meta)
	}
	w.U8(policyTag(c.policy))
	switch p := c.policy.(type) {
	case *BRRIP:
		w.U32(p.ctr)
	case *DRRIP:
		w.I64(int64(p.psel))
		w.U32(p.brrip.ctr)
	}
	c.Stats.snapshotTo(w)
}

// RestoreFrom restores state serialized by SnapshotTo into a cache of
// identical geometry, dropping any deferred prewarm: the image
// overwrites every line.
func (c *Cache) RestoreFrom(r *snap.Reader) error {
	r.Expect(uint64(c.Sets), c.Cfg.Name+" set count")
	r.Expect(uint64(c.Cfg.Ways), c.Cfg.Name+" way count")
	c.plan = nil
	c.tick = r.I64()
	for i := range c.lines {
		l := &c.lines[i]
		l.Tag = r.U64()
		l.FillTime = r.I64()
		l.LastUse = r.I64()
		l.OriginLat = r.I32()
		l.Valid = r.Bool()
		l.Dirty = r.Bool()
		l.Prefetch = PrefetchID(r.U8())
		l.Meta = r.U8()
	}
	tag := r.U8()
	if want := policyTag(c.policy); r.Err() == nil && tag != want {
		r.Fail(fmt.Errorf("snap: %s policy mismatch: snapshot has tag %d, live cache has %d", c.Cfg.Name, tag, want))
	}
	switch p := c.policy.(type) {
	case *BRRIP:
		p.ctr = r.U32()
	case *DRRIP:
		p.psel = int(r.I64())
		p.brrip.ctr = r.U32()
	}
	c.Stats.restoreFrom(r)
	return r.Err()
}

func (s *Stats) snapshotTo(w *snap.Writer) {
	w.U64(s.Lookups)
	w.U64(s.Hits)
	w.U64(s.Misses)
	w.U64(s.Fills)
	w.U64(s.Evictions)
	w.U64(s.DirtyEvictions)
	w.U64(s.Invalidations)
	w.U64(s.Writes)
	w.U64(s.PrefetchFills)
	w.U64(s.PrefetchUsed)
	w.U64(s.PrefetchEvictedUnused)
}

func (s *Stats) restoreFrom(r *snap.Reader) {
	s.Lookups = r.U64()
	s.Hits = r.U64()
	s.Misses = r.U64()
	s.Fills = r.U64()
	s.Evictions = r.U64()
	s.DirtyEvictions = r.U64()
	s.Invalidations = r.U64()
	s.Writes = r.U64()
	s.PrefetchFills = r.U64()
	s.PrefetchUsed = r.U64()
	s.PrefetchEvictedUnused = r.U64()
}

// SnapshotTo appends the hierarchy's per-core mutable state (the
// caches it points at are serialized by their owners).
func (h *Hierarchy) SnapshotTo(w *snap.Writer) {
	w.Int(len(h.mshrs))
	for _, v := range h.mshrs {
		w.I64(v)
	}
	h.Stats.snapshotTo(w)
}

// RestoreFrom restores hierarchy state serialized by SnapshotTo.
func (h *Hierarchy) RestoreFrom(r *snap.Reader) error {
	r.Expect(uint64(len(h.mshrs)), "MSHR count")
	for i := range h.mshrs {
		h.mshrs[i] = r.I64()
	}
	h.Stats.restoreFrom(r)
	return r.Err()
}

func (s *HierStats) snapshotTo(w *snap.Writer) {
	w.U64(s.Loads)
	w.U64(s.LoadL1)
	w.U64(s.LoadL2)
	w.U64(s.LoadLLC)
	w.U64(s.LoadMem)
	w.U64(s.Stores)
	w.U64(s.StoreL1Hit)
	w.U64(s.StoreMiss)
	w.U64(s.Fetches)
	w.U64(s.FetchL1)
	w.U64(s.FetchL2)
	w.U64(s.FetchLLC)
	w.U64(s.FetchMem)
	w.U64(s.WBToL2)
	w.U64(s.WBToLLC)
	w.U64(s.WBToMem)
	w.U64(s.TactIssued)
	w.U64(s.TactFilledL2)
	w.U64(s.TactFilledLLC)
	w.U64(s.TactDropPresent)
	w.U64(s.TactDropMiss)
	w.U64(s.TactUsed)
	w.U64(s.CodePfIssued)
	w.U64(s.CodePfFilled)
	w.U64(s.StridePfIssued)
	w.U64(s.StreamPfIssued)
	w.U64(s.OraclePromotions)
	w.U64(s.MSHRStallCycles)
	if s.TactTimeliness == nil {
		w.Bool(false)
		return
	}
	w.Bool(true)
	hist := s.TactTimeliness
	w.Int(len(hist.Bounds))
	for _, b := range hist.Bounds {
		w.U64(math.Float64bits(b))
	}
	for _, c := range hist.Counts {
		w.U64(c)
	}
	w.U64(hist.Total)
}

func (s *HierStats) restoreFrom(r *snap.Reader) {
	s.Loads = r.U64()
	s.LoadL1 = r.U64()
	s.LoadL2 = r.U64()
	s.LoadLLC = r.U64()
	s.LoadMem = r.U64()
	s.Stores = r.U64()
	s.StoreL1Hit = r.U64()
	s.StoreMiss = r.U64()
	s.Fetches = r.U64()
	s.FetchL1 = r.U64()
	s.FetchL2 = r.U64()
	s.FetchLLC = r.U64()
	s.FetchMem = r.U64()
	s.WBToL2 = r.U64()
	s.WBToLLC = r.U64()
	s.WBToMem = r.U64()
	s.TactIssued = r.U64()
	s.TactFilledL2 = r.U64()
	s.TactFilledLLC = r.U64()
	s.TactDropPresent = r.U64()
	s.TactDropMiss = r.U64()
	s.TactUsed = r.U64()
	s.CodePfIssued = r.U64()
	s.CodePfFilled = r.U64()
	s.StridePfIssued = r.U64()
	s.StreamPfIssued = r.U64()
	s.OraclePromotions = r.U64()
	s.MSHRStallCycles = r.U64()
	if !r.Bool() {
		s.TactTimeliness = nil
		return
	}
	nb := r.Int()
	if nb < 0 || nb > 1<<16 {
		r.Fail(fmt.Errorf("snap: implausible histogram bound count %d", nb))
		return
	}
	bounds := make([]float64, nb)
	for i := range bounds {
		bounds[i] = math.Float64frombits(r.U64())
	}
	hist := stats.NewHistogram(bounds...)
	for i := range hist.Counts {
		hist.Counts[i] = r.U64()
	}
	hist.Total = r.U64()
	s.TactTimeliness = hist
}
