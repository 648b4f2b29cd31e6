package cache

import (
	"catch/internal/interconnect"
	"catch/internal/memory"
	"catch/internal/stats"
	"catch/internal/telemetry"
	"catch/internal/trace"
)

// HitLevel identifies where an access was served from.
type HitLevel uint8

// Hit levels.
const (
	HitNone HitLevel = iota
	HitL1
	HitL2
	HitLLC
	HitMem
)

// String names the hit level.
func (h HitLevel) String() string {
	switch h {
	case HitL1:
		return "L1"
	case HitL2:
		return "L2"
	case HitLLC:
		return "LLC"
	case HitMem:
		return "MEM"
	}
	return "none"
}

// HierStats aggregates per-core hierarchy events.
type HierStats struct {
	Loads, LoadL1, LoadL2, LoadLLC, LoadMem       uint64
	Stores, StoreL1Hit, StoreMiss                 uint64
	Fetches, FetchL1, FetchL2, FetchLLC, FetchMem uint64
	WBToL2, WBToLLC, WBToMem                      uint64

	TactIssued, TactFilledL2, TactFilledLLC uint64
	TactDropPresent, TactDropMiss           uint64
	TactUsed                                uint64
	CodePfIssued, CodePfFilled              uint64
	StridePfIssued                          uint64
	StreamPfIssued                          uint64
	OraclePromotions                        uint64
	MSHRStallCycles                         uint64

	// TactTimeliness buckets the fraction of the source latency saved
	// by TACT prefetches on their first demand use:
	// bucket 0: ≤10% saved, bucket 1: 10–80%, bucket 2: >80% (Fig 11).
	TactTimeliness *stats.Histogram
}

// Hierarchy is one core's view of the cache system: private L1I/L1D,
// optional private L2, a shared LLC, the ring and main memory.
type Hierarchy struct {
	L1I, L1D *Cache
	L2       *Cache             // nil in two-level (noL2) configurations
	LLC      *Cache             //catch:nosnap shared resource; the System codec snapshots it once
	Mem      *memory.DRAM       //catch:nosnap shared resource; the System codec snapshots it once
	Ring     *interconnect.Ring //catch:nosnap shared resource; the System codec snapshots it once

	Inclusive bool //catch:nosnap construction-time configuration, not warm state
	CoreID    int  //catch:nosnap identity wiring fixed at construction
	LLCStop   int  //catch:nosnap ring topology fixed at construction

	// BackInval is invoked when an inclusive LLC evicts a line; the
	// system wires it to invalidate the line in every private cache.
	BackInval func(addr uint64, now int64)

	// Trace, when attached and enabled, receives cache events (sampled
	// demand accesses, every TACT prefetch/timeliness record). Nil or
	// disabled costs one branch per access.
	Trace *telemetry.Tracer //catch:nosnap observability wiring, not simulated state

	// mshrs bounds the number of demand L1 misses in flight (fill
	// buffers). Prefetches bypass it: TACT's point is precisely that
	// prefetched lines leave the demand-miss path.
	mshrs []int64

	Stats HierStats
}

// SetMSHRs sizes the demand-miss fill-buffer file (0 disables the
// limit).
func (h *Hierarchy) SetMSHRs(n int) {
	if n <= 0 {
		h.mshrs = nil
		return
	}
	h.mshrs = make([]int64, n)
}

// mshrStart returns the cycle at which a new demand miss can begin
// (waiting for the oldest in-flight miss if the file is full).
func (h *Hierarchy) mshrStart(now int64) (int64, int) {
	if len(h.mshrs) == 0 {
		return now, -1
	}
	slot, min := 0, h.mshrs[0]
	for i := 1; i < len(h.mshrs); i++ {
		if h.mshrs[i] < min {
			slot, min = i, h.mshrs[i]
		}
	}
	if min > now {
		h.Stats.MSHRStallCycles += uint64(min - now)
		now = min
	}
	return now, slot
}

func (h *Hierarchy) mshrFinish(slot int, done int64) {
	if slot >= 0 {
		h.mshrs[slot] = done
	}
}

type accessKind uint8

const (
	accLoad accessKind = iota
	accStore
	accFetch
	accPfTact
	accPfCode
	accPfStride
)

// Load performs a demand data load at cycle now and returns its
// latency and serving level.
//
//catch:hotpath
func (h *Hierarchy) Load(addr uint64, now int64) (int64, HitLevel) {
	h.Stats.Loads++
	lat, lvl := h.access(addr, now, accLoad, PfNone, true)
	switch lvl {
	case HitL1:
		h.Stats.LoadL1++
	case HitL2:
		h.Stats.LoadL2++
	case HitLLC:
		h.Stats.LoadLLC++
	case HitMem:
		h.Stats.LoadMem++
	}
	if t := h.Trace; t.Enabled() && t.Sampled() {
		t.Emit(telemetry.Event{Cat: telemetry.CatCache, Type: telemetry.EvLoad,
			TID: uint8(h.CoreID), TS: now, Dur: lat, A1: addr, A2: uint64(lvl)})
	}
	return lat, lvl
}

// Store performs a demand store (write-allocate, write-back). Its
// latency is not modelled on the critical path; the call exists for
// state and traffic accounting.
//
//catch:hotpath
func (h *Hierarchy) Store(addr uint64, now int64) {
	h.Stats.Stores++
	if h.L1D.MarkDirty(LineAddr(addr)) {
		h.Stats.StoreL1Hit++
		if t := h.Trace; t.Enabled() && t.Sampled() {
			t.Emit(telemetry.Event{Cat: telemetry.CatCache, Type: telemetry.EvStore,
				TID: uint8(h.CoreID), TS: now, A1: addr, A2: 1})
		}
		return
	}
	h.Stats.StoreMiss++
	h.access(addr, now, accStore, PfNone, true)
	h.L1D.MarkDirty(LineAddr(addr))
	if t := h.Trace; t.Enabled() && t.Sampled() {
		t.Emit(telemetry.Event{Cat: telemetry.CatCache, Type: telemetry.EvStore,
			TID: uint8(h.CoreID), TS: now, A1: addr})
	}
}

// Fetch performs a demand code fetch through the L1 instruction cache.
//
//catch:hotpath
func (h *Hierarchy) Fetch(addr uint64, now int64) (int64, HitLevel) {
	h.Stats.Fetches++
	lat, lvl := h.access(addr, now, accFetch, PfNone, true)
	switch lvl {
	case HitL1:
		h.Stats.FetchL1++
	case HitL2:
		h.Stats.FetchL2++
	case HitLLC:
		h.Stats.FetchLLC++
	case HitMem:
		h.Stats.FetchMem++
	}
	if t := h.Trace; t.Enabled() && t.Sampled() {
		t.Emit(telemetry.Event{Cat: telemetry.CatCache, Type: telemetry.EvFetch,
			TID: uint8(h.CoreID), TS: now, Dur: lat, A1: addr, A2: uint64(lvl)})
	}
	return lat, lvl
}

// PrefetchData issues a TACT inter-cache prefetch of addr into the L1
// data cache. Lines not present in L2/LLC are dropped: TACT hides
// on-die latency, it does not fetch from memory.
func (h *Hierarchy) PrefetchData(addr uint64, now int64) HitLevel {
	h.Stats.TactIssued++
	_, lvl := h.access(addr, now, accPfTact, PfTACT, false)
	switch lvl {
	case HitL1:
		h.Stats.TactDropPresent++
	case HitL2:
		h.Stats.TactFilledL2++
	case HitLLC:
		h.Stats.TactFilledLLC++
	default:
		h.Stats.TactDropMiss++
	}
	if t := h.Trace; t.Enabled() {
		t.Emit(telemetry.Event{Cat: telemetry.CatTact, Type: telemetry.EvTactPrefetch,
			TID: uint8(h.CoreID), TS: now, A1: addr, A2: uint64(lvl)})
	}
	return lvl
}

// PrefetchCode issues a TACT code run-ahead prefetch into the L1I.
func (h *Hierarchy) PrefetchCode(addr uint64, now int64) HitLevel {
	h.Stats.CodePfIssued++
	_, lvl := h.access(addr, now, accPfCode, PfCode, true)
	if lvl == HitL2 || lvl == HitLLC || lvl == HitMem {
		h.Stats.CodePfFilled++
	}
	return lvl
}

// PrefetchStrideL1 issues a baseline L1 stride prefetch (distance 1);
// it may fetch from memory, like the hardware it models.
func (h *Hierarchy) PrefetchStrideL1(addr uint64, now int64) {
	h.Stats.StridePfIssued++
	h.access(addr, now, accPfStride, PfStride, true)
}

// PrefetchStream issues a baseline multi-stream prefetch into the L2
// (or the LLC in noL2 configurations), fetching from memory on an
// on-die miss.
func (h *Hierarchy) PrefetchStream(addr uint64, now int64) {
	la := LineAddr(addr)
	h.Stats.StreamPfIssued++
	// Prefetch filter: lines already on die (including ones a demand
	// hit just moved into the L1, leaving no LLC copy in exclusive
	// hierarchies) must not be refetched from memory.
	if h.L1D.Probe(la) != nil {
		return
	}
	if h.L2 != nil {
		if h.L2.Probe(la) != nil {
			return
		}
		if l := h.LLC.Probe(la); l != nil {
			h.Ring.RoundTrip(h.CoreID, h.LLCStop)
			dirty := l.Dirty
			if !h.Inclusive {
				h.LLC.Invalidate(la)
			}
			h.fillL2(la, now+h.LLC.Cfg.HitLat, dirty, PfStream)
			return
		}
		h.Ring.RoundTrip(h.CoreID, h.LLCStop)
		mlat := h.Mem.Read(la, now+h.LLC.Cfg.HitLat/2)
		if h.Inclusive {
			h.fillLLC(la, now+mlat, false, PfStream)
		}
		h.fillL2(la, now+mlat, false, PfStream)
		return
	}
	// Two-level hierarchy: stream prefetches land in the LLC.
	if h.LLC.Probe(la) != nil {
		return
	}
	mlat := h.Mem.Read(la, now+h.LLC.Cfg.HitLat/2)
	h.fillLLC(la, now+mlat, false, PfStream)
}

// OraclePromoteData performs the paper's zero-time oracle prefetch
// (§III-C): if addr is resident in the L2 or LLC, it is moved into the
// L1 data cache instantaneously. Reports whether a promotion happened.
func (h *Hierarchy) OraclePromoteData(addr uint64, now int64) bool {
	la := LineAddr(addr)
	if h.L1D.Probe(la) != nil {
		return false
	}
	if h.L2 != nil {
		if h.L2.Probe(la) != nil {
			h.Stats.OraclePromotions++
			h.fillL1(h.L1D, la, now, 0, false, PfOracle)
			return true
		}
	}
	if l := h.LLC.Probe(la); l != nil {
		h.Stats.OraclePromotions++
		dirty := l.Dirty
		if !h.Inclusive {
			h.LLC.Invalidate(la)
			if h.L2 != nil {
				h.fillL2(la, now, dirty, PfOracle)
				dirty = false
			}
		}
		h.fillL1(h.L1D, la, now, 0, dirty && h.L2 == nil, PfOracle)
		return true
	}
	return false
}

// ProbeLevel reports, without side effects, the level at which addr is
// currently resident.
func (h *Hierarchy) ProbeLevel(addr uint64) HitLevel {
	la := LineAddr(addr)
	if h.L1D.Probe(la) != nil || h.L1I.Probe(la) != nil {
		return HitL1
	}
	if h.L2 != nil && h.L2.Probe(la) != nil {
		return HitL2
	}
	if h.LLC.Probe(la) != nil {
		return HitLLC
	}
	return HitMem
}

// effLat computes the effective latency of a hit on a possibly
// in-flight line.
func effLat(base int64, l *Line, now int64) int64 {
	if l.FillTime > now {
		wait := l.FillTime - now + 1
		if wait > base {
			return wait
		}
	}
	return base
}

// access walks the hierarchy for one reference. allowMem=false turns
// the walk into an on-die-only probe-and-promote (TACT prefetch).
//
//catch:hotpath
func (h *Hierarchy) access(addr uint64, now int64, kind accessKind, pf PrefetchID, allowMem bool) (int64, HitLevel) {
	la := LineAddr(addr)
	l1 := h.L1D
	if kind == accFetch || kind == accPfCode {
		l1 = h.L1I
	}

	if line, hit := l1.Lookup(la); hit {
		lat := effLat(l1.Cfg.HitLat, line, now)
		if kind == accLoad || kind == accFetch || kind == accStore {
			h.noteDemandUse(l1, line, lat, now)
		}
		return lat, HitL1
	}

	// Demand data misses occupy a fill buffer; a full file delays the
	// miss (this is what bounds memory-level parallelism).
	t, slot := now, -1
	if kind == accLoad || kind == accStore {
		t, slot = h.mshrStart(now)
	}
	q := t - now // queueing delay charged on top of the access latency

	if h.L2 != nil {
		if line, hit := h.L2.Lookup(la); hit {
			lat := effLat(h.L2.Cfg.HitLat, line, t)
			h.L2.NoteDemandUse(line)
			h.fillL1(l1, la, t+lat, lat, false, pf)
			h.mshrFinish(slot, t+lat)
			return q + lat, HitL2
		}
	}

	h.Ring.RoundTrip(h.CoreID, h.LLCStop)
	if line, hit := h.LLC.Lookup(la); hit {
		lat := effLat(h.LLC.Cfg.HitLat, line, t)
		h.LLC.NoteDemandUse(line)
		dirty := line.Dirty
		if !h.Inclusive {
			h.LLC.Invalidate(la)
		}
		if h.L2 != nil {
			h.fillL2(la, t+lat, dirty && !h.Inclusive, pf)
			dirty = false
		}
		h.fillL1(l1, la, t+lat, lat, dirty && !h.Inclusive && h.L2 == nil, pf)
		h.mshrFinish(slot, t+lat)
		return q + lat, HitLLC
	}

	if !allowMem {
		h.mshrFinish(slot, t) // nothing was actually in flight
		return 0, HitMem
	}

	issue := t + h.LLC.Cfg.HitLat/2
	lat := h.Mem.Read(la, issue) + h.LLC.Cfg.HitLat/2
	if h.Inclusive {
		h.fillLLC(la, t+lat, false, pf)
	}
	if h.L2 != nil {
		h.fillL2(la, t+lat, false, pf)
	}
	h.fillL1(l1, la, t+lat, lat, false, pf)
	h.mshrFinish(slot, t+lat)
	return q + lat, HitMem
}

// noteDemandUse credits prefetchers on the first demand hit of a
// prefetched L1 line and records TACT timeliness.
//
//catch:hotpath
func (h *Hierarchy) noteDemandUse(c *Cache, line *Line, lat int64, now int64) {
	if line.Prefetch == PfNone {
		return
	}
	if line.Prefetch == PfTACT && line.OriginLat > 0 {
		h.Stats.TactUsed++
		if h.Stats.TactTimeliness == nil {
			h.Stats.TactTimeliness = stats.NewHistogram(0.10, 0.80)
		}
		extra := lat - c.Cfg.HitLat
		if extra < 0 {
			extra = 0
		}
		saved := float64(int64(line.OriginLat)-extra) / float64(line.OriginLat)
		if saved < 0 {
			saved = 0
		}
		if saved > 1 {
			saved = 1
		}
		h.Stats.TactTimeliness.Observe(saved)
		if t := h.Trace; t.Enabled() {
			t.Emit(telemetry.Event{Cat: telemetry.CatTact, Type: telemetry.EvTactUse,
				TID: uint8(h.CoreID), TS: now, A1: line.Tag << 6, A2: uint64(saved * 1000), A3: uint64(line.OriginLat)})
		}
	}
	c.NoteDemandUse(line)
}

// fillL1 installs a line in an L1, handling the displaced victim: dirty
// victims are written back to the next level; in exclusive two-level
// hierarchies clean victims also allocate into the LLC (that is what
// makes the LLC exclusive).
//
//catch:hotpath
func (h *Hierarchy) fillL1(c *Cache, la uint64, fillTime, originLat int64, dirty bool, pf PrefetchID) {
	v := c.Fill(la, fillTime, originLat, dirty, pf)
	if !v.Valid {
		return
	}
	if h.L2 != nil {
		if v.Dirty {
			h.Stats.WBToL2++
			if h.L2.MarkDirty(v.Addr) {
				return
			}
			h.fillL2(v.Addr, fillTime, true, PfNone)
		}
		return
	}
	// No L2: victims spill to the LLC.
	if h.Inclusive {
		if v.Dirty {
			h.Stats.WBToLLC++
			h.Ring.Traverse(h.CoreID, h.LLCStop, interconnect.MsgWriteback)
			if !h.LLC.MarkDirty(v.Addr) {
				h.fillLLC(v.Addr, fillTime, true, PfNone)
			}
		}
		return
	}
	h.Stats.WBToLLC++
	h.Ring.Traverse(h.CoreID, h.LLCStop, interconnect.MsgWriteback)
	h.fillLLC(v.Addr, fillTime, v.Dirty, PfNone)
}

// fillL2 installs a line in the L2, spilling its victim per the LLC
// inclusion policy (exclusive LLCs allocate every L2 victim; inclusive
// LLCs only absorb dirty data).
//
//catch:hotpath
func (h *Hierarchy) fillL2(la uint64, fillTime int64, dirty bool, pf PrefetchID) {
	v := h.L2.Fill(la, fillTime, 0, dirty, pf)
	if !v.Valid {
		return
	}
	if h.Inclusive {
		if v.Dirty {
			h.Stats.WBToLLC++
			h.Ring.Traverse(h.CoreID, h.LLCStop, interconnect.MsgWriteback)
			if !h.LLC.MarkDirty(v.Addr) {
				h.fillLLC(v.Addr, fillTime, true, PfNone)
			}
		}
		return
	}
	h.Stats.WBToLLC++
	h.Ring.Traverse(h.CoreID, h.LLCStop, interconnect.MsgWriteback)
	h.fillLLC(v.Addr, fillTime, v.Dirty, PfNone)
}

// fillLLC installs a line in the shared LLC; dirty victims go to
// memory, and inclusive evictions back-invalidate the private caches.
//
//catch:hotpath
func (h *Hierarchy) fillLLC(la uint64, fillTime int64, dirty bool, pf PrefetchID) {
	v := h.LLC.Fill(la, fillTime, 0, dirty, pf)
	if !v.Valid {
		return
	}
	if v.Dirty {
		h.Stats.WBToMem++
		h.Mem.Write(v.Addr, fillTime)
	}
	if h.Inclusive && h.BackInval != nil {
		h.BackInval(v.Addr, fillTime)
	}
}

// Prewarm installs every line of regs into the LLC at time zero,
// bypassing the demand path (used to emulate the steady-state cache
// residency a much longer run would reach). Lines are installed in
// order and a line already resident is skipped, so the result equals
// probing and filling each line in turn.
//
// The LLC must be untouched: no fill or hit yet, so its clock is still
// zero; Prewarm panics otherwise. Under the built-in LRU, with regions
// that share no line and, for an inclusive LLC, no set receiving more
// lines than it has ways, Prewarm only records a plan that Probe,
// Lookup and Fill carry out one set at a time on first touch (see
// prewarmPlan); on an LLC built over a reused array the plan also
// clears each stale set then. Otherwise it clears every stale set and
// walks every line now: each set holds only lines this call
// installed, none touched twice, so LRU evicts them oldest first and
// the k-th line a set receives lands in way k mod Ways without a
// victim scan; a full set under an RRIP policy takes the ordinary fill
// path, whose victim depends on the set's aging state, and an
// inclusive LLC back-invalidates each victim.
func (h *Hierarchy) Prewarm(regs []trace.Region) {
	if len(regs) == 0 {
		return
	}
	c := h.LLC
	if c.tick != 0 {
		panic("cache: Prewarm on an LLC that has already been filled or hit")
	}
	if c.policy == nil && c.planPrewarm(regs, h.Inclusive) {
		return
	}
	c.PlacePrewarm() // the walk reads ways it has not written
	ways := c.Cfg.Ways
	received := make([]int32, c.Sets) // lines installed in each set so far
	for _, r := range regs {
		for a := r.Base; a < r.Base+r.Size; a += trace.CacheLineSize {
			la := LineAddr(a)
			tag := lineTag(la)
			s := c.setIndex(tag)
			set := c.lines[s*ways : (s+1)*ways]
			k := int(received[s])
			if holds(set[:min(k, ways)], tag) {
				continue
			}
			received[s]++
			if k >= ways && c.policy != nil {
				h.fillLLC(la, 0, false, PfNone)
				continue
			}
			way := k % ways
			victim := set[way]
			c.Stats.Fills++
			c.tick++
			set[way] = Line{Tag: tag, LastUse: c.tick, Valid: true}
			if c.policy != nil {
				c.policy.OnFill(set, way, s)
			}
			if victim.Valid {
				c.Stats.Evictions++
				if h.Inclusive && h.BackInval != nil {
					h.BackInval(victim.Tag<<6, 0)
				}
			}
		}
	}
}

// holds reports whether one of the installed ways holds tag.
func holds(installed []Line, tag uint64) bool {
	for i := range installed {
		if installed[i].Tag == tag {
			return true
		}
	}
	return false
}

// InvalidatePrivate removes addr from this core's private caches
// (inclusive back-invalidation); dirty data is written to memory.
func (h *Hierarchy) InvalidatePrivate(addr uint64, now int64) {
	la := LineAddr(addr)
	if _, dirty := h.L1D.Invalidate(la); dirty {
		h.Stats.WBToMem++
		h.Mem.Write(la, now)
	}
	h.L1I.Invalidate(la)
	if h.L2 != nil {
		if _, dirty := h.L2.Invalidate(la); dirty {
			h.Stats.WBToMem++
			h.Mem.Write(la, now)
		}
	}
}

// LineAddr returns the 64B-aligned line address.
func LineAddr(a uint64) uint64 { return a &^ 63 }
