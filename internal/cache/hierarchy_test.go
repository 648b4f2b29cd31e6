package cache

import (
	"testing"

	"catch/internal/interconnect"
	"catch/internal/memory"
)

// newTestHier builds a small hierarchy; withL2 selects three-level.
func newTestHier(withL2, inclusive bool) *Hierarchy {
	h := &Hierarchy{
		L1I:       New(Config{Name: "L1I", Size: 4096, Ways: 4, HitLat: 5}),
		L1D:       New(Config{Name: "L1D", Size: 4096, Ways: 4, HitLat: 5}),
		LLC:       New(Config{Name: "LLC", Size: 64 * 1024, Ways: 8, HitLat: 40}),
		Mem:       memory.New(memory.DDR4_2400()),
		Ring:      interconnect.New(4, 2),
		Inclusive: inclusive,
	}
	if withL2 {
		h.L2 = New(Config{Name: "L2", Size: 16 * 1024, Ways: 8, HitLat: 15})
	}
	h.BackInval = func(addr uint64, now int64) { h.InvalidatePrivate(addr, now) }
	return h
}

func TestLoadMissGoesToMemory(t *testing.T) {
	h := newTestHier(true, false)
	lat, lvl := h.Load(0x10000, 0)
	if lvl != HitMem {
		t.Fatalf("cold load served from %v", lvl)
	}
	if lat < 40 {
		t.Fatalf("memory latency %d implausibly low", lat)
	}
	if h.Stats.LoadMem != 1 {
		t.Fatalf("stats: %+v", h.Stats)
	}
}

func TestLoadFillsAllLevels(t *testing.T) {
	h := newTestHier(true, false)
	h.Load(0x10000, 0)
	// Second access at a much later time must hit L1.
	lat, lvl := h.Load(0x10000, 10000)
	if lvl != HitL1 || lat != 5 {
		t.Fatalf("second load: lat=%d lvl=%v", lat, lvl)
	}
	// The L2 holds it too (fill on miss path).
	if h.L2.Probe(0x10000) == nil {
		t.Fatal("L2 not filled on memory load")
	}
}

func TestExclusiveLLCHoldsOnlyVictims(t *testing.T) {
	h := newTestHier(true, false)
	h.Load(0x10000, 0)
	// Exclusive: a memory fill goes to L2+L1, not the LLC.
	if h.LLC.Probe(0x10000) != nil {
		t.Fatal("exclusive LLC allocated on memory fill")
	}
	// Evict it from L2 by filling conflicting lines; victims land in LLC.
	set := uint64(0x10000) >> 6 % uint64(h.L2.Sets)
	for i := 1; i <= h.L2.Cfg.Ways; i++ {
		conflict := (set + uint64(i*h.L2.Sets)) << 6
		h.Load(conflict, int64(i*1000))
	}
	if h.LLC.Probe(0x10000) == nil {
		t.Fatal("L2 victim did not land in exclusive LLC")
	}
}

func TestExclusiveLLCHitMovesLineUp(t *testing.T) {
	h := newTestHier(true, false)
	// Plant a line in the LLC directly.
	h.LLC.Fill(0x20000, 0, 0, false, PfNone)
	_, lvl := h.Load(0x20000, 100)
	if lvl != HitLLC {
		t.Fatalf("load served from %v, want LLC", lvl)
	}
	if h.LLC.Probe(0x20000) != nil {
		t.Fatal("exclusive LLC kept the line after a hit")
	}
	if h.L2.Probe(0x20000) == nil {
		t.Fatal("LLC hit did not fill L2")
	}
}

func TestInclusiveLLCKeepsLine(t *testing.T) {
	h := newTestHier(true, true)
	h.Load(0x30000, 0)
	if h.LLC.Probe(0x30000) == nil {
		t.Fatal("inclusive LLC not filled on memory load")
	}
	h.Load(0x30000, 10000)
	if h.LLC.Probe(0x30000) == nil {
		t.Fatal("inclusive LLC dropped line on hit")
	}
}

func TestInclusiveBackInvalidation(t *testing.T) {
	h := newTestHier(true, true)
	h.Load(0x40000, 0)
	if h.L1D.Probe(0x40000) == nil {
		t.Fatal("setup: line not in L1")
	}
	// Force the LLC set to evict 0x40000 by filling conflicting lines.
	sets := uint64(h.LLC.Sets)
	for i := 1; i <= h.LLC.Cfg.Ways+1; i++ {
		conflict := uint64(0x40000) + uint64(i)*sets*64
		h.LLC.Fill(conflict, 0, 0, false, PfNone)
		if h.LLC.Probe(0x40000) == nil {
			break
		}
	}
	// The private copies must be gone (inclusion).
	// Note: fillLLC drives BackInval only through Hierarchy fills; here
	// we emulate by calling the hook for the evicted line.
	if h.LLC.Probe(0x40000) == nil {
		h.BackInval(0x40000, 0)
		if h.L1D.Probe(0x40000) != nil {
			t.Fatal("back-invalidation left L1 copy")
		}
	}
}

func TestInclusiveEvictionViaDemandStream(t *testing.T) {
	h := newTestHier(true, true)
	h.Load(0x50000, 0)
	// Stream enough distinct lines through the same LLC set to evict it.
	sets := uint64(h.LLC.Sets)
	for i := 1; i <= h.LLC.Cfg.Ways+2; i++ {
		h.Load(uint64(0x50000)+uint64(i)*sets*64, int64(i)*500)
	}
	if h.LLC.Probe(0x50000) == nil && h.L1D.Probe(0x50000) != nil {
		t.Fatal("demand-driven LLC eviction did not back-invalidate L1")
	}
}

func TestTwoLevelExclusiveSpillsCleanVictims(t *testing.T) {
	h := newTestHier(false, false)
	h.Load(0x60000, 0)
	if h.LLC.Probe(0x60000) != nil {
		t.Fatal("two-level exclusive: LLC allocated on fill")
	}
	// Evict from L1 by conflicting lines; clean victim must go to LLC.
	sets := uint64(h.L1D.Sets)
	for i := 1; i <= h.L1D.Cfg.Ways+1; i++ {
		h.Load(uint64(0x60000)+uint64(i)*sets*64, int64(i)*500)
	}
	if h.L1D.Probe(0x60000) == nil && h.LLC.Probe(0x60000) == nil {
		t.Fatal("clean L1 victim lost from the on-die hierarchy")
	}
}

func TestStoreMarksDirtyAndWritesBack(t *testing.T) {
	h := newTestHier(true, false)
	h.Store(0x70000, 0)
	l := h.L1D.Probe(0x70000)
	if l == nil || !l.Dirty {
		t.Fatal("store did not allocate dirty line in L1")
	}
	if h.Stats.StoreMiss != 1 {
		t.Fatalf("store miss not counted: %+v", h.Stats)
	}
	h.Store(0x70000, 100)
	if h.Stats.StoreL1Hit != 1 {
		t.Fatalf("store hit not counted: %+v", h.Stats)
	}
}

func TestInFlightFillLatency(t *testing.T) {
	h := newTestHier(true, false)
	h.L2.Fill(0x80000, 0, 0, false, PfNone)
	// Demand at t=0 makes an L2 hit filling L1 at t=15.
	lat1, lvl := h.Load(0x80000, 0)
	if lvl != HitL2 || lat1 != 15 {
		t.Fatalf("L2 hit lat=%d lvl=%v", lat1, lvl)
	}
	// A second access at t=5 must wait for the in-flight fill (~t=15),
	// not get a full 5-cycle L1 hit.
	lat2, lvl2 := h.Load(0x80000, 5)
	if lvl2 != HitL1 {
		t.Fatalf("second access lvl=%v", lvl2)
	}
	if lat2 <= 5 || lat2 > 15 {
		t.Fatalf("in-flight hit latency = %d, want in (5,15]", lat2)
	}
}

func TestPrefetchDataDropsOnMiss(t *testing.T) {
	h := newTestHier(true, false)
	lvl := h.PrefetchData(0x90000, 0)
	if lvl != HitMem {
		t.Fatalf("prefetch of absent line reported %v", lvl)
	}
	if h.L1D.Probe(0x90000) != nil {
		t.Fatal("TACT prefetch fetched from memory")
	}
	if h.Stats.TactDropMiss != 1 {
		t.Fatalf("drop not counted: %+v", h.Stats)
	}
}

func TestPrefetchDataFromL2(t *testing.T) {
	h := newTestHier(true, false)
	h.L2.Fill(0xA0000, 0, 0, false, PfNone)
	lvl := h.PrefetchData(0xA0000, 100)
	if lvl != HitL2 {
		t.Fatalf("prefetch served from %v", lvl)
	}
	l := h.L1D.Probe(0xA0000)
	if l == nil || l.Prefetch != PfTACT {
		t.Fatal("prefetch did not install TACT-marked line in L1")
	}
	if l.FillTime != 115 {
		t.Fatalf("prefetch fill time = %d, want 115", l.FillTime)
	}
}

func TestPrefetchTimelinessRecorded(t *testing.T) {
	h := newTestHier(true, false)
	h.L2.Fill(0xB0000, 0, 0, false, PfNone)
	h.PrefetchData(0xB0000, 0) // fills L1 at t=15
	// Demand long after: full latency saved (>80% bucket).
	h.Load(0xB0000, 1000)
	hist := h.Stats.TactTimeliness
	if hist == nil || hist.Total != 1 {
		t.Fatal("timeliness not recorded")
	}
	if hist.Counts[2] != 1 {
		t.Fatalf(">80%% bucket empty: %+v", hist.Counts)
	}
	if h.Stats.TactUsed != 1 {
		t.Fatal("TactUsed not counted")
	}
}

func TestPrefetchTimelinessLateArrival(t *testing.T) {
	h := newTestHier(true, false)
	h.LLC.Fill(0xC0000, 0, 0, false, PfNone)
	h.PrefetchData(0xC0000, 0) // arrives at t=40
	// Demand immediately after issue waits the whole latency: ≤10% saved.
	h.Load(0xC0000, 0)
	hist := h.Stats.TactTimeliness
	if hist == nil || hist.Counts[0] != 1 {
		t.Fatalf("late prefetch not in <10%% bucket: %+v", hist)
	}
}

func TestOraclePromote(t *testing.T) {
	h := newTestHier(true, false)
	h.L2.Fill(0xD0000, 0, 0, false, PfNone)
	if !h.OraclePromoteData(0xD0000, 50) {
		t.Fatal("oracle promote failed on L2-resident line")
	}
	lat, lvl := h.Load(0xD0000, 50)
	if lvl != HitL1 || lat != 5 {
		t.Fatalf("post-promote load: lat=%d lvl=%v", lat, lvl)
	}
	if h.OraclePromoteData(0xD0000, 60) {
		t.Fatal("promote of L1-resident line reported success")
	}
	if h.OraclePromoteData(0xFF0000, 60) {
		t.Fatal("promote of absent line reported success")
	}
}

func TestMSHRLimitsConcurrency(t *testing.T) {
	h := newTestHier(true, false)
	h.SetMSHRs(2)
	// Plant lines in the LLC so misses take 40 cycles each.
	for i := 0; i < 6; i++ {
		h.LLC.Fill(uint64(0x100000+i*64), 0, 0, false, PfNone)
	}
	var last int64
	for i := 0; i < 6; i++ {
		lat, _ := h.Load(uint64(0x100000+i*64), 0)
		last = lat
	}
	// With 2 MSHRs, the 6th miss waits for two full generations.
	if last < 80 {
		t.Fatalf("MSHR backpressure missing: 6th miss latency %d", last)
	}
	if h.Stats.MSHRStallCycles == 0 {
		t.Fatal("MSHR stall cycles not recorded")
	}
}

func TestMSHRDisabled(t *testing.T) {
	h := newTestHier(true, false)
	h.SetMSHRs(0)
	for i := 0; i < 6; i++ {
		h.LLC.Fill(uint64(0x100000+i*64), 0, 0, false, PfNone)
	}
	for i := 0; i < 6; i++ {
		lat, _ := h.Load(uint64(0x100000+i*64), 0)
		if lat != 40 {
			t.Fatalf("unlimited MSHRs: latency %d, want 40", lat)
		}
	}
}

func TestFetchUsesL1I(t *testing.T) {
	h := newTestHier(true, false)
	h.Fetch(0x200000, 0)
	if h.L1I.Probe(0x200000) == nil {
		t.Fatal("fetch did not fill L1I")
	}
	if h.L1D.Probe(0x200000) != nil {
		t.Fatal("fetch polluted L1D")
	}
	_, lvl := h.Fetch(0x200000, 10000)
	if lvl != HitL1 {
		t.Fatalf("refetch served from %v", lvl)
	}
}

func TestProbeLevel(t *testing.T) {
	h := newTestHier(true, false)
	if h.ProbeLevel(0x400000) != HitMem {
		t.Fatal("absent line not reported at memory")
	}
	h.LLC.Fill(0x400000, 0, 0, false, PfNone)
	if h.ProbeLevel(0x400000) != HitLLC {
		t.Fatal("LLC residency not reported")
	}
	h.L2.Fill(0x400040, 0, 0, false, PfNone)
	if h.ProbeLevel(0x400040) != HitL2 {
		t.Fatal("L2 residency not reported")
	}
	h.L1D.Fill(0x400080, 0, 0, false, PfNone)
	if h.ProbeLevel(0x400080) != HitL1 {
		t.Fatal("L1 residency not reported")
	}
}

func TestRingTrafficCounted(t *testing.T) {
	h := newTestHier(true, false)
	before := h.Ring.TotalMessages()
	h.Load(0x500000, 0) // miss to memory -> LLC round trip on the ring
	if h.Ring.TotalMessages() == before {
		t.Fatal("LLC access generated no ring traffic")
	}
}

func TestHitLevelString(t *testing.T) {
	for lvl, want := range map[HitLevel]string{
		HitL1: "L1", HitL2: "L2", HitLLC: "LLC", HitMem: "MEM", HitNone: "none",
	} {
		if lvl.String() != want {
			t.Errorf("HitLevel(%d).String() = %q", lvl, lvl.String())
		}
	}
}
