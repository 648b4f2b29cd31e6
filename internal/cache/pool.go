package cache

import (
	"runtime"
	"sync"
	"unsafe"
)

// Every LLC line array in the process comes from one free list. An LLC
// array is the largest thing a job allocates (3.25 MB for a 6.5 MB
// LLC), and a short job touches only a fraction of it, so NewPooled
// builds each LLC over an array an earlier cache released, when one is
// large enough, and Release hands it back. A reused array is cleared
// set by set on first touch (see prewarmPlan), so the cache behaves
// exactly as a fresh one.
//
// On Linux outside race builds a fresh array is an anonymous private
// mapping outside the Go heap (lines_mmap.go): the kernel zero-fills
// each page on first touch, and listed arrays are not heap, so keeping
// them between jobs does not inflate the GC's heap goal (and with it
// the peak heap, as arrays kept on the heap did). Elsewhere, and under
// the race detector, which does not see accesses outside the heap,
// arrays are made on the heap (lines_heap.go). A mapped array whose
// cache is dropped without Release is unmapped by a finalizer once the
// GC finds its owner unreachable.
//
// The list needs no cap: a fresh array is made only when no listed one
// fits, and then it replaces a listed one (which is too small), so the
// list never holds more arrays than were in use at once.

// lineArray owns one pooled line array. It is the heap object the
// finalizer of a mapped array hangs on, so it must stay reachable for
// as long as the array is in use: a cache holds it as its owner.
type lineArray struct {
	lines  []Line // the whole array
	mapped bool   // outside the heap; unmapped when dropped
	inUse  bool   // taken by a cache and not yet released
	reused bool   // taken from the list rather than freshly made
}

var pool struct {
	mu   sync.Mutex
	free []*lineArray
}

// NewPooled is New with the line array taken from the process-wide
// pool: the smallest released array that holds the cache's lines, or
// a fresh one when none does. Whatever a reused array holds is stale:
// every set starts pending in a plan (see prewarmPlan), and the first
// Probe, Lookup or Fill that reaches a set clears it, as PlacePrewarm
// clears every set, so the cache behaves exactly as a fresh one while
// a short run zeroes only the sets it touches. Hand the array back
// with Release once the cache is no longer used.
//
// A *Line that Probe or Lookup returns points into the array, which
// may lie outside the Go heap, so the pointer does not keep the cache
// alive: it is valid only while the cache is reachable and not yet
// released.
func NewPooled(cfg Config) *Cache {
	c := newCache(cfg)
	n := c.Sets * c.Cfg.Ways
	c.owner = takeLines(n)
	c.lines = c.owner.lines[:n]
	if c.owner.reused {
		c.plan = stalePlan(c.Sets)
	}
	return c
}

// Reused reports whether c was built over an array that an earlier
// cache released.
func (c *Cache) Reused() bool { return c.owner != nil && c.owner.reused }

// Release hands c's line array back to the pool for the next cache
// built. Call it once nothing will touch c again: c drops its lines, so
// a later Probe, Lookup or Fill panics instead of reading another
// cache's lines, and so does a second Release or the Release of a
// cache New built.
func (c *Cache) Release() {
	a := c.owner
	if a == nil {
		panic("cache: Release of " + c.Cfg.Name + ", which holds no pooled line array")
	}
	c.owner, c.lines, c.plan = nil, nil, nil
	pool.mu.Lock()
	defer pool.mu.Unlock()
	if !a.inUse {
		panic("cache: a line array released twice")
	}
	a.inUse = false
	pool.free = append(pool.free, a)
}

// takeLines takes the smallest listed array of at least n lines, or
// makes a fresh one. A fresh one replaces the smallest listed array,
// which is too small, so the arrays in use and listed together never
// outnumber the most that were ever in use at once.
func takeLines(n int) *lineArray {
	pool.mu.Lock()
	fit, small := -1, -1
	for i, a := range pool.free {
		switch l := len(a.lines); {
		case l >= n && (fit < 0 || l < len(pool.free[fit].lines)):
			fit = i
		case l < n && (small < 0 || l < len(pool.free[small].lines)):
			small = i
		}
	}
	var a, drop *lineArray
	switch {
	case fit >= 0:
		a = unlist(fit)
		if a.inUse {
			pool.mu.Unlock()
			panic("cache: a listed line array is already in use")
		}
		a.inUse, a.reused = true, true
	case small >= 0:
		drop = unlist(small)
	}
	pool.mu.Unlock()
	if a != nil {
		return a
	}
	if drop != nil && drop.mapped {
		runtime.SetFinalizer(drop, nil)
		unmapLines(drop.lines)
	}
	lines, mapped := mapLines(n)
	a = &lineArray{lines: lines, mapped: mapped, inUse: true}
	if mapped {
		runtime.SetFinalizer(a, func(a *lineArray) { unmapLines(a.lines) })
	}
	return a
}

// unlist removes the i-th listed array and returns it; pool.mu is held.
func unlist(i int) *lineArray {
	a := pool.free[i]
	last := len(pool.free) - 1
	pool.free[i] = pool.free[last]
	pool.free[last] = nil
	pool.free = pool.free[:last]
	return a
}

// PoolHeapBytes reports how many bytes of the Go heap the listed
// arrays hold: all of them in race builds and off Linux, none where
// arrays are mapped. A test that measures live heap subtracts it.
func PoolHeapBytes() int64 {
	pool.mu.Lock()
	defer pool.mu.Unlock()
	var n int64
	for _, a := range pool.free {
		if !a.mapped {
			n += int64(len(a.lines)) * int64(unsafe.Sizeof(Line{}))
		}
	}
	return n
}
