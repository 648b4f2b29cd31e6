package cache

import "testing"

// TestLookupFillAllocFree guards the cache hot path: once a cache is
// built, Lookup (hit and miss), Fill (with and without eviction),
// Probe and MarkDirty perform zero heap allocations. The recycled
// cache is built over a dirty pooled array and fills only half its
// sets first, so the measured calls also clear the other half on first
// touch.
func TestLookupFillAllocFree(t *testing.T) {
	cfg := Config{Name: "L1D", Size: 32 << 10, Ways: 8, HitLat: 5}
	for _, recycled := range []bool{false, true} {
		c, warm := New(cfg), uint64(64<<10)
		if recycled {
			c, warm = dirtyPooled(t, cfg, 2*512, 1<<10), 32*64
		}
		for a := uint64(0); a < warm; a += 64 {
			c.Fill(a, 0, 5, false, PfNone)
		}
		if recycled && c.plan == nil {
			t.Fatal("the recycled cache cleared every set before the measured calls")
		}
		addr := uint64(0)
		if allocs := testing.AllocsPerRun(100, func() {
			c.Lookup(addr)                              // one hit or miss
			c.Lookup(addr + (1 << 30))                  // guaranteed miss
			c.Fill(addr+(2<<20), 0, 5, false, PfStride) // eviction path
			c.Probe(addr)
			c.MarkDirty(addr)
			addr += 64
		}); allocs != 0 {
			t.Errorf("cache hot path (recycled %v): %v allocs per op batch, want 0", recycled, allocs)
		}
		if recycled {
			c.Release()
		}
	}
}

// TestLookupAllocFreeNonPow2Sets covers the modulo set-index fallback
// (e.g. the 6.5MB iso-area LLC), which must be just as allocation-free.
func TestLookupAllocFreeNonPow2Sets(t *testing.T) {
	c := New(Config{Name: "LLC", Size: 6656 * 1024, Ways: 16, HitLat: 44})
	if c.Sets&(c.Sets-1) == 0 {
		t.Fatalf("test wants a non-power-of-two set count, got %d", c.Sets)
	}
	addr := uint64(0)
	if allocs := testing.AllocsPerRun(100, func() {
		c.Fill(addr, 0, 44, false, PfNone)
		c.Lookup(addr)
		addr += 64
	}); allocs != 0 {
		t.Errorf("non-pow2 cache hot path: %v allocs, want 0", allocs)
	}
}
