package cache

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"catch/internal/trace"
)

// prewarmPerLine is the reference Prewarm must reproduce: every line
// of regs, in order, probed and, when absent, filled into the LLC
// through the ordinary fill path.
func prewarmPerLine(h *Hierarchy, regs []trace.Region) {
	for _, r := range regs {
		for a := r.Base; a < r.Base+r.Size; a += trace.CacheLineSize {
			la := LineAddr(a)
			if h.LLC.Probe(la) == nil {
				h.fillLLC(la, 0, false, PfNone)
			}
		}
	}
}

func TestPrewarm(t *testing.T) {
	h := newTestHier(true, false)
	// The second region names the first one's line again.
	h.Prewarm([]trace.Region{{Base: 0x300000, Size: 64}, {Base: 0x300000 + 32, Size: 1}})
	if h.LLC.Probe(0x300000) == nil {
		t.Fatal("prewarm did not fill LLC")
	}
	if h.LLC.Stats.Fills != 1 {
		t.Fatalf("prewarm of a present line filled again: %d fills, want 1", h.LLC.Stats.Fills)
	}
	_, lvl := h.Load(0x300000, 0)
	if lvl != HitLLC {
		t.Fatalf("prewarmed line served from %v", lvl)
	}
}

// TestPrewarmPanicsAfterAccess: the direct placement is exact only on
// an LLC that no fill or hit has touched, so Prewarm refuses any other.
func TestPrewarmPanicsAfterAccess(t *testing.T) {
	h := newTestHier(true, true)
	h.Load(0x10000, 0) // an inclusive LLC allocates on the memory fill
	defer func() {
		if recover() == nil {
			t.Fatal("Prewarm after a Load did not panic")
		}
	}()
	h.Prewarm([]trace.Region{{Base: 0x300000, Size: 64}})
}

// TestPrewarmMatchesPerLine is the prewarm's exactness property.
// Random region lists (overlapping or disjoint, unaligned, overflowing
// their sets) over random LLC geometries (set counts that are not a
// power of two included), under every replacement policy, with and
// without an L2 and with inclusive and exclusive LLCs, must leave the
// whole Hierarchy deeply equal to the per-line reference: lines, LRU
// clock, statistics, policy state, and the private caches and memory
// that inclusive back-invalidation reaches. A deferred plan is placed
// in full before that comparison. A second prewarmed copy then keeps
// its plan while the same seeded loads and stores drive it and the
// reference, so first-touch placement interleaves with fills, hits,
// evictions and back-invalidation, and must end deeply equal again.
func TestPrewarmMatchesPerLine(t *testing.T) {
	rng := rand.New(rand.NewSource(20261017))
	// LRU, the one policy a plan serves, runs in half the cases.
	policies := []string{"lru", "srrip", "lru", "brrip", "lru", "drrip"}
	var overflowed, repeated, deferred, eager int
	for i := 0; i < 800; i++ {
		sets := []int{1, 3, 7, 8, 24, 64}[rng.Intn(6)]
		ways := []int{1, 2, 4, 11, 13}[rng.Intn(5)]
		policy := policies[i%6]
		withL2, inclusive := i/6%2 == 0, i/12%2 == 0
		var regs []trace.Region
		if i/24%2 == 0 {
			regs = disjointRegions(rng, sets*ways)
		} else {
			regs = randomRegions(rng, sets*ways)
		}
		private := randomLines(rng, sets*ways)
		build := func() *Hierarchy {
			h := newTestHier(withL2, inclusive)
			h.LLC = New(Config{Name: "LLC", Size: uint64(sets * ways * 64), Ways: ways, HitLat: 40})
			h.LLC.SetPolicy(policy)
			// Private copies make inclusive back-invalidation
			// observable; they leave the LLC untouched.
			for k, la := range private {
				h.L1D.Fill(la, 0, 0, k%2 == 0, PfNone)
				if h.L2 != nil {
					h.L2.Fill(la, 0, 0, k%3 == 0, PfNone)
				}
			}
			return h
		}
		want, got, driven := build(), build(), build()
		prewarmPerLine(want, regs)
		got.Prewarm(regs)
		driven.Prewarm(regs)
		if got.LLC.plan != nil {
			deferred++
		} else {
			eager++
		}
		got.LLC.PlacePrewarm()
		if !hierEqual(got, want) {
			t.Fatalf("case %d (%d sets x %d ways, %s, L2 %v, inclusive %v, regions %v): Prewarm differs from the per-line loop in %s",
				i, sets, ways, policy, withL2, inclusive, regs, hierDiff(got, want))
		}
		if want.LLC.Stats.Evictions > 0 {
			overflowed++
		}
		if want.LLC.Stats.Fills < walkedLines(regs) {
			repeated++
		}

		n, seed, span := 1+rng.Intn(4*sets*ways), rng.Uint64(), uint64(5*sets*ways*trace.CacheLineSize)
		driveRandom(want, n, seed, span)
		driveRandom(driven, n, seed, span)
		driven.LLC.PlacePrewarm()
		if !hierEqual(driven, want) {
			t.Fatalf("case %d (%d sets x %d ways, %s, L2 %v, inclusive %v, regions %v): after %d accesses the prewarmed hierarchy differs from the per-line one in %s",
				i, sets, ways, policy, withL2, inclusive, regs, n, hierDiff(driven, want))
		}
	}
	if overflowed < 100 || repeated < 100 || deferred < 100 || eager < 100 {
		t.Fatalf("weak inputs: %d cases overflowed a set, %d repeated a line, %d deferred the prewarm and %d walked it eagerly, want at least 100 each",
			overflowed, repeated, deferred, eager)
	}
}

// randomRegions draws one to five regions over an address span three
// times the LLC's capacity, so sets overflow and lines repeat. Bases
// are unaligned half the time, and some regions start inside the
// previous one.
func randomRegions(rng *rand.Rand, llcLines int) []trace.Region {
	span := uint64(3 * llcLines)
	regs := make([]trace.Region, 1+rng.Intn(5))
	for i := range regs {
		base := uint64(rng.Int63n(int64(span))) * trace.CacheLineSize
		if i > 0 && rng.Intn(3) == 0 {
			prev := regs[i-1]
			base = prev.Base + uint64(rng.Int63n(int64(prev.Size)))
		}
		if rng.Intn(2) == 0 {
			base += uint64(1 + rng.Intn(trace.CacheLineSize-1))
		}
		size := 1 + uint64(rng.Int63n(int64(2*llcLines*trace.CacheLineSize)))
		regs[i] = trace.Region{Base: base, Size: size}
	}
	return regs
}

// disjointRegions draws one to five regions that share no line, in
// shuffled address order, over about the span randomRegions uses.
// Together they hold up to twice the LLC's capacity, so some sets
// overflow in about half the draws. Neighbours may abut, and bases are
// unaligned half the time.
func disjointRegions(rng *rand.Rand, llcLines int) []trace.Region {
	regs := make([]trace.Region, 1+rng.Intn(5))
	line := uint64(rng.Intn(llcLines)) // the first line no region holds yet
	for i := range regs {
		lines := 1 + uint64(rng.Intn(max(2*llcLines/len(regs), 1)))
		var off uint64
		if rng.Intn(2) == 0 {
			off = uint64(1 + rng.Intn(trace.CacheLineSize-1))
		}
		// The region ends inside its last line, so it covers exactly
		// lines lines from line.
		size := (lines-1)*trace.CacheLineSize + 1 + uint64(rng.Intn(trace.CacheLineSize-int(off)))
		regs[i] = trace.Region{Base: line*trace.CacheLineSize + off, Size: size}
		line += lines + uint64(rng.Intn(llcLines/2+1))
	}
	rng.Shuffle(len(regs), func(i, j int) { regs[i], regs[j] = regs[j], regs[i] })
	return regs
}

// randomLines draws line addresses from the same span as randomRegions.
func randomLines(rng *rand.Rand, llcLines int) []uint64 {
	out := make([]uint64, 1+rng.Intn(32))
	for i := range out {
		out[i] = uint64(rng.Int63n(int64(3*llcLines))) * trace.CacheLineSize
	}
	return out
}

// walkedLines counts the line visits of a per-line walk over regs.
func walkedLines(regs []trace.Region) uint64 {
	var n uint64
	for _, r := range regs {
		for a := r.Base; a < r.Base+r.Size; a += trace.CacheLineSize {
			n++
		}
	}
	return n
}

// hierEqual deep-compares two hierarchies, all but their BackInval
// hooks (functions never compare equal) and which pooled array holds
// the LLC's lines.
func hierEqual(a, b *Hierarchy) bool {
	ai, bi := a.BackInval, b.BackInval
	ao, bo := a.LLC.owner, b.LLC.owner
	a.BackInval, b.BackInval = nil, nil
	a.LLC.owner, b.LLC.owner = nil, nil
	defer func() {
		a.BackInval, b.BackInval = ai, bi
		a.LLC.owner, b.LLC.owner = ao, bo
	}()
	return reflect.DeepEqual(a, b)
}

// hierDiff names the components in which two hierarchies differ.
func hierDiff(a, b *Hierarchy) string {
	llcA, llcB := *a.LLC, *b.LLC
	llcA.owner, llcB.owner = nil, nil
	var out []string
	for _, c := range []struct {
		name string
		x, y any
	}{
		{"LLC", &llcA, &llcB}, {"L1D", a.L1D, b.L1D}, {"L1I", a.L1I, b.L1I},
		{"L2", a.L2, b.L2}, {"Mem", a.Mem, b.Mem}, {"Stats", a.Stats, b.Stats},
	} {
		if !reflect.DeepEqual(c.x, c.y) {
			out = append(out, c.name)
		}
	}
	return fmt.Sprint(out)
}
