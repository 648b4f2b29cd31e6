package cache

import "testing"

// TestPoolMisusePanics: a released cache has dropped its lines, so its
// next Probe, Lookup or Fill panics instead of touching the array the
// next cache took. A second Release panics, and so do the Release of
// a cache New built, a Release of a copy sharing an array already
// released (the array's in-use flag), and taking a listed array that
// is in use.
func TestPoolMisusePanics(t *testing.T) {
	cfg := Config{Name: "LLC", Size: 64 << 10, Ways: 8, HitLat: 40}
	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", what)
			}
		}()
		f()
	}
	c := NewPooled(cfg)
	c.Fill(0, 0, 0, false, PfNone)
	twin := *c // shares c's array
	c.Release()
	mustPanic("Probe after Release", func() { c.Probe(0) })
	mustPanic("Lookup after Release", func() { c.Lookup(0) })
	mustPanic("Fill after Release", func() { c.Fill(64, 0, 0, false, PfNone) })
	mustPanic("a second Release", c.Release)
	mustPanic("releasing an array already released", twin.Release)
	mustPanic("Release of a cache New built", New(cfg).Release)

	drainPool()
	held := NewPooled(cfg)
	pool.mu.Lock()
	pool.free = append(pool.free, held.owner) // listed while in use, which only a bug could do
	pool.mu.Unlock()
	mustPanic("taking an array already taken", func() { NewPooled(cfg) })
	held.Release()
}

// TestPoolTakesSmallestFit pins how the pool picks an array: the
// smallest listed one that holds the new cache's lines; when none
// does, a fresh one that replaces the smallest listed array, so the
// arrays listed and in use never outnumber the most that were in use
// at once.
func TestPoolTakesSmallestFit(t *testing.T) {
	drainPool()
	sized := func(lines int) Config { return Config{Name: "LLC", Size: uint64(lines) * 64, Ways: 1} }
	small, large := NewPooled(sized(100)), NewPooled(sized(300))
	if small.Reused() || large.Reused() {
		t.Fatal("an empty pool handed out a reused array")
	}
	smallArray, largeArray := &small.lines[0], &large.lines[0]
	small.Release()
	large.Release()

	mid := NewPooled(sized(200))
	if !mid.Reused() || &mid.lines[0] != largeArray {
		t.Fatal("a 200-line cache did not take the listed 300-line array")
	}
	tiny := NewPooled(sized(50))
	if !tiny.Reused() || &tiny.lines[0] != smallArray {
		t.Fatal("a 50-line cache did not take the listed 100-line array")
	}
	mid.Release()
	tiny.Release()

	big := NewPooled(sized(400))
	if big.Reused() {
		t.Fatal("a 400-line cache reused an array, but none listed is large enough")
	}
	pool.mu.Lock()
	listed := append([]*lineArray(nil), pool.free...)
	pool.mu.Unlock()
	if len(listed) != 1 || &listed[0].lines[0] != largeArray {
		t.Fatalf("after a fresh 400-line array the list holds %d arrays, want only the 300-line one", len(listed))
	}
	big.Release()
}
