package cache

import (
	"math/rand"
	"runtime"
	"testing"

	"catch/internal/trace"
)

// Prewarm paths a recycled LLC must reproduce, one per FuzzRecycledCache
// mode.
const (
	pathNone         = iota // no prewarm: the stale plan only clears
	pathDeferred            // LRU, disjoint regions: a first-touch plan
	pathSRRIP               // eager walk under SRRIP
	pathDRRIP               // eager walk under DRRIP
	pathOverlapping         // LRU, regions sharing a line: eager walk
	pathOverflowIncl        // LRU, an inclusive LLC that overflows: eager walk with back-invalidation
	numPaths
)

// dirtyLines returns n lines in which every field of every line is
// non-zero. Tags 1..span repeat the line numbers the fuzzed operations
// address, so a stale line left in place would turn a miss into a hit.
func dirtyLines(n int, span uint64) []Line {
	lines := make([]Line, n)
	for i := range lines {
		lines[i] = Line{
			Tag:       1 + uint64(i)%span,
			FillTime:  int64(1 + i),
			LastUse:   int64(n - i),
			OriginLat: int32(7 + i%5),
			Valid:     true,
			Dirty:     true,
			Prefetch:  PfTACT,
			Meta:      uint8(1 + i%3),
		}
	}
	return lines
}

// dirtyPooled returns a cache of cfg that NewPooled built over a
// released array of n lines (at least cfg's) in which every field of
// every line is non-zero (see dirtyLines). It empties the pool's list
// first, so that array is the only one listed.
func dirtyPooled(t testing.TB, cfg Config, n int, span uint64) *Cache {
	t.Helper()
	drainPool()
	donor := NewPooled(Config{Name: "donor", Size: uint64(n) * 64, Ways: 1})
	array := donor.lines
	copy(array, dirtyLines(n, span))
	donor.Release()
	c := NewPooled(cfg)
	if !c.Reused() || &c.lines[0] != &array[0] {
		t.Fatal("NewPooled did not reuse the only listed array, which is large enough")
	}
	return c
}

// drainPool empties the pool's list, unmapping what it held, so the
// next NewPooled makes a fresh array. Tests that call it must not run
// in parallel with others that take pooled arrays.
func drainPool() {
	pool.mu.Lock()
	free := pool.free
	pool.free = nil
	pool.mu.Unlock()
	for _, a := range free {
		if a.mapped {
			runtime.SetFinalizer(a, nil)
			unmapLines(a.lines)
		}
	}
}

// recycledCase decodes a FuzzRecycledCache input into an LLC geometry,
// a prewarm path and its regions. The regions are drawn from a seeded
// generator and then bent so the input takes the path its mode names.
func recycledCase(geom, mode, seed byte) (sets, ways int, policy string, inclusive bool, regs []trace.Region) {
	sets = []int{1, 3, 7, 8, 24, 64, 65, 130}[geom%8]
	ways = []int{1, 2, 4, 11, 13}[geom/8%5]
	lines := sets * ways
	rng := rand.New(rand.NewSource(int64(seed)))
	policy = "lru"
	switch mode % numPaths {
	case pathNone:
		return
	case pathDeferred:
		regs = disjointRegions(rng, lines)
	case pathSRRIP:
		policy, regs = "srrip", disjointRegions(rng, lines)
	case pathDRRIP:
		policy, regs = "drrip", disjointRegions(rng, lines)
	case pathOverlapping:
		regs = disjointRegions(rng, lines)
		r := regs[0]
		regs = append(regs, trace.Region{Base: r.Base + uint64(rng.Int63n(int64(r.Size))), Size: 1 + uint64(rng.Intn(3*trace.CacheLineSize))})
	case pathOverflowIncl:
		inclusive = true
		regs = append(disjointRegions(rng, lines), trace.Region{Base: uint64(3*lines) * trace.CacheLineSize, Size: uint64(lines+1) * trace.CacheLineSize})
	}
	return
}

// FuzzRecycledCache is the differential check behind pooling LLC line
// arrays: an LLC that NewPooled built over a released, dirty array
// (every field of every line non-zero, the array possibly larger than
// the cache needs) must behave exactly as one built over a fresh
// array. The input picks a geometry,
// a prewarm path (none, a deferred plan, SRRIP and DRRIP eager walks,
// overlapping regions, an overflowing inclusive LLC) and a sequence of
// Probe, Lookup, Fill, MarkDirty and Invalidate calls, the first few
// of which may run before the prewarm (only those that leave the clock
// at zero). Every call must answer the same on both LLCs, and after
// PlacePrewarm the whole hierarchies must be deeply equal: lines,
// statistics, clock, policy state and the private caches that
// back-invalidation reaches.
func FuzzRecycledCache(f *testing.F) {
	for mode := byte(0); mode < numPaths; mode++ {
		f.Add(mode*11, mode, mode+1, byte(0), byte(2), []byte{0, 1, 9, 1, 2, 9, 2, 3, 9, 3, 4, 9, 4, 5, 9, 2, 1, 9})
		f.Add(mode*13+5, mode, mode+7, byte(3), byte(0), []byte{2, 0, 1, 1, 0, 1, 3, 0, 1, 4, 0, 1, 0, 0, 1})
	}
	f.Fuzz(func(t *testing.T, geom, mode, seed, early, extra byte, ops []byte) {
		sets, ways, policy, inclusive, regs := recycledCase(geom, mode, seed)
		lines := sets * ways
		span := uint64(3 * lines) // operations address lines 0..span-1
		cfg := Config{Name: "LLC", Size: uint64(lines * 64), Ways: ways, HitLat: 40}
		build := func(llc *Cache) *Hierarchy {
			h := newTestHier(true, inclusive)
			h.LLC = llc
			h.LLC.SetPolicy(policy)
			for k := uint64(0); k < 8; k++ { // private copies for back-invalidation to reach
				h.L1D.Fill(k*7%span*64, 0, 0, k%2 == 0, PfNone)
				h.L2.Fill(k*5%span*64, 0, 0, k%3 == 0, PfNone)
			}
			return h
		}
		fresh, reused := build(New(cfg)), build(dirtyPooled(t, cfg, lines+int(extra)%3*lines, span))
		defer reused.LLC.Release()

		n := len(ops) / 3
		pre := min(int(early), n)
		for i := 0; i < n; i++ {
			if i == pre && regs != nil {
				fresh.Prewarm(regs)
				reused.Prewarm(regs)
			}
			op, la := ops[3*i]%5, uint64(ops[3*i+1])%span*64
			if i < pre && op == 2 {
				op = 0 // no Fill before the prewarm: it would start the clock
			}
			flags := ops[3*i+2]
			switch op {
			case 0:
				a, b := fresh.LLC.Probe(la), reused.LLC.Probe(la)
				if (a == nil) != (b == nil) || a != nil && *a != *b {
					t.Fatalf("op %d: Probe(%#x) = %v on the fresh LLC, %v on the reused one", i, la, a, b)
				}
			case 1:
				a, hitA := fresh.LLC.Lookup(la)
				b, hitB := reused.LLC.Lookup(la)
				if hitA != hitB || hitA && *a != *b {
					t.Fatalf("op %d: Lookup(%#x) hit %v on the fresh LLC, %v on the reused one", i, la, hitA, hitB)
				}
			case 2:
				dirty, pf := flags&1 != 0, PrefetchID(flags>>1%6)
				fill := int64(i) + int64(flags)
				if a, b := fresh.LLC.Fill(la, fill, int64(flags), dirty, pf), reused.LLC.Fill(la, fill, int64(flags), dirty, pf); a != b {
					t.Fatalf("op %d: Fill(%#x) evicted %+v on the fresh LLC, %+v on the reused one", i, la, a, b)
				}
			case 3:
				if a, b := fresh.LLC.MarkDirty(la), reused.LLC.MarkDirty(la); a != b {
					t.Fatalf("op %d: MarkDirty(%#x) = %v on the fresh LLC, %v on the reused one", i, la, a, b)
				}
			case 4:
				pa, da := fresh.LLC.Invalidate(la)
				pb, db := reused.LLC.Invalidate(la)
				if pa != pb || da != db {
					t.Fatalf("op %d: Invalidate(%#x) = %v, %v on the fresh LLC, %v, %v on the reused one", i, la, pa, da, pb, db)
				}
			}
		}
		if pre >= n && regs != nil {
			fresh.Prewarm(regs)
			reused.Prewarm(regs)
		}
		fresh.LLC.PlacePrewarm()
		reused.LLC.PlacePrewarm()
		if !hierEqual(fresh, reused) {
			t.Fatalf("%d sets x %d ways, %s, inclusive %v, regions %v: the reused hierarchy differs from the fresh one in %s",
				sets, ways, policy, inclusive, regs, hierDiff(fresh, reused))
		}
	})
}

// TestRecycledPrewarmPaths pins that FuzzRecycledCache's modes take the
// prewarm paths they name: a plan for the deferred mode, the eager
// walk for the others, and back-invalidation on the overflowing
// inclusive LLC.
func TestRecycledPrewarmPaths(t *testing.T) {
	for mode := byte(pathDeferred); mode < numPaths; mode++ {
		for seed := byte(0); seed < 20; seed++ {
			sets, ways, policy, inclusive, regs := recycledCase(7*seed, mode, seed)
			h := newTestHier(false, inclusive)
			h.LLC = dirtyPooled(t, Config{Name: "LLC", Size: uint64(sets * ways * 64), Ways: ways, HitLat: 40}, sets*ways, 1)
			h.LLC.SetPolicy(policy)
			var backInval int
			h.BackInval = func(uint64, int64) { backInval++ }
			h.Prewarm(regs)
			if deferred := h.LLC.plan != nil && h.LLC.plan.runs != nil; deferred != (mode == pathDeferred) {
				t.Fatalf("mode %d, seed %d (%d sets x %d ways, regions %v): deferred %v", mode, seed, sets, ways, regs, deferred)
			}
			if (backInval > 0) != (mode == pathOverflowIncl) {
				t.Fatalf("mode %d, seed %d: %d back-invalidations", mode, seed, backInval)
			}
			h.LLC.Release()
		}
	}
}
