package cache

import (
	"cmp"
	"math/bits"
	"slices"

	"catch/internal/trace"
)

// prewarmPlan is an LLC prewarm deferred to first touch. Prewarm
// records the regions as runs of consecutive line tags and advances
// the clock and the fill and eviction counters by what installing
// every line would, but writes no line. Probe, Lookup and Fill place a
// set's share of the plan the first time they touch that set, so a set
// the run never reaches is never written.
//
// A cache built over a reused line array (NewPooled) holds a plan from
// the start, with every set pending and stale set: placing a set then
// first clears whatever an earlier cache left in it, so a set is
// zeroed only when the run reaches it. Prewarm adds its runs to that
// plan; with no prewarm the plan only clears.
//
// Deferring is exact when a set's prewarmed state is a function of its
// own lines alone, which Prewarm checks before it plans: the built-in
// LRU replaces (RRIP insertion state advances across sets in walk
// order), no line repeats (the walk skips a line already resident),
// and no victim must be back-invalidated at prewarm time (an inclusive
// LLC needs every set to fit). Placing set s then follows the eager
// walk's direct-placement rule: its lines are the run tags t with
// t mod Sets = s, in walk order, and the j-th of them lands in way
// j mod Ways with LastUse one past its install position, so of R lines
// the last min(R, Ways) survive.
//
// A snapshot never holds a plan: SnapshotTo places every pending set
// before it encodes, and RestoreFrom drops the plan.
type prewarmPlan struct {
	runs    []lineRun //catch:nosnap a snapshot holds no plan
	pending []uint64  //catch:nosnap a snapshot holds no plan; one bit per set whose lines are not yet placed
	left    int       //catch:nosnap a snapshot holds no plan; pending sets, the plan is dropped at zero
	stale   bool      //catch:nosnap a snapshot holds no plan; pending sets hold an earlier cache's lines
}

// stalePlan returns the plan of a cache of sets sets built over a
// reused line array: every set pending, none yet cleared.
func stalePlan(sets int) *prewarmPlan {
	p := &prewarmPlan{pending: make([]uint64, (sets+63)/64), left: sets, stale: true}
	for s := 0; s < sets; s += 64 {
		p.pending[s>>6] = ^uint64(0) >> max(s+64-sets, 0)
	}
	return p
}

// lineRun is one region's lines: consecutive tags from tag, the first
// installed at walk position pos.
type lineRun struct {
	tag uint64
	pos int64
	set int // the first line's set
	// Every set receives q of the run's lines, and the rem sets from
	// set on (wrapping) one more.
	q, rem int
}

// planPrewarm records regs as c's prewarm plan and reports true. It
// records nothing and reports false when deferring would not be exact:
// when two regions share a line, or when inclusive is set and some set
// receives more lines than it has ways. c must be untouched and use
// the built-in LRU. On a reused array the runs join the stale plan
// NewPooled made, whose every set is still pending unless a Probe or a
// Lookup already cleared it; such a set is pending again, since it is
// as empty as a fresh one.
func (c *Cache) planPrewarm(regs []trace.Region, inclusive bool) bool {
	type span struct{ lo, hi uint64 } // a run's tags [lo, hi)
	runs := make([]lineRun, 0, len(regs))
	spans := make([]span, 0, len(regs))
	sets := uint64(c.Sets)
	var pos int64
	for _, r := range regs {
		n := r.Size / trace.CacheLineSize // the walk's a += 64 loop visits ceil(Size/64) lines
		if r.Size%trace.CacheLineSize != 0 {
			n++
		}
		if n == 0 {
			continue
		}
		tag := lineTag(r.Base)
		runs = append(runs, lineRun{tag: tag, pos: pos, set: c.setIndex(tag), q: int(n / sets), rem: int(n % sets)})
		spans = append(spans, span{tag, tag + n})
		pos += int64(n)
	}
	slices.SortFunc(spans, func(a, b span) int { return cmp.Compare(a.lo, b.lo) })
	for i := 1; i < len(spans); i++ {
		if spans[i].lo < spans[i-1].hi {
			return false
		}
	}

	// Lines per set: every run's q, plus one where its remainder
	// covers the set, summed through a difference array.
	base := 0
	diff := make([]int32, c.Sets+1)
	for _, r := range runs {
		base += r.q
		diff[r.set]++
		if end := r.set + r.rem; end <= c.Sets {
			diff[end]--
		} else { // the remainder wraps past the last set
			diff[0]++
			diff[end-c.Sets]--
		}
	}
	receiving := make([]uint64, (c.Sets+63)/64) // one bit per set that receives a line
	var evictions uint64
	extra, n := 0, 0
	for s := 0; s < c.Sets; s++ {
		extra += int(diff[s])
		received := base + extra
		if received == 0 {
			continue
		}
		receiving[s>>6] |= 1 << (s & 63)
		n++
		if received > c.Cfg.Ways {
			evictions += uint64(received - c.Cfg.Ways)
		}
	}
	if inclusive && evictions > 0 {
		return false
	}
	switch p := c.plan; {
	case p != nil: // a reused array's stale plan
		p.runs = runs
		for w, b := range receiving {
			p.left += bits.OnesCount64(b &^ p.pending[w])
			p.pending[w] |= b
		}
	case n > 0:
		c.plan = &prewarmPlan{runs: runs, pending: receiving, left: n}
	}
	c.tick = pos
	c.Stats.Fills += uint64(pos)
	c.Stats.Evictions += evictions
	return true
}

// placeSet places set s's share of the prewarm plan if it is still
// pending, and drops the plan once no set is.
//
//catch:hotpath
func (c *Cache) placeSet(s int) {
	p := c.plan
	word, bit := s>>6, uint64(1)<<(s&63)
	if p.pending[word]&bit == 0 {
		return
	}
	p.pending[word] &^= bit
	if p.stale {
		clear(c.lines[s*c.Cfg.Ways : (s+1)*c.Cfg.Ways])
	}
	p.place(c, s)
	if p.left--; p.left == 0 {
		c.plan = nil
	}
}

// place writes set s's lines into the untouched or cleared set.
//
//catch:hotpath
func (p *prewarmPlan) place(c *Cache, s int) {
	sets, ways := c.Sets, c.Cfg.Ways
	received := 0
	for i := range p.runs {
		_, n := p.runs[i].inSet(s, sets)
		received += n
	}
	evicted := max(received-ways, 0) // lines a later line of the set displaced
	set := c.lines[s*ways : (s+1)*ways]
	way, j := evicted%ways, 0 // the j-th line received lands in way j mod Ways
	for i := range p.runs {
		r := &p.runs[i]
		off, n := r.inSet(s, sets)
		k := max(evicted-j, 0)
		j += n
		for ; k < n; k++ {
			o := uint64(off + k*sets)
			set[way] = Line{Tag: r.tag + o, LastUse: r.pos + int64(o) + 1, Valid: true}
			if way++; way == ways {
				way = 0
			}
		}
	}
}

// inSet returns the index within r of its first line in set s, and
// how many of its lines fall in s; they lie sets apart.
func (r *lineRun) inSet(s, sets int) (off, n int) {
	off = s - r.set
	if off < 0 {
		off += sets
	}
	n = r.q
	if off < r.rem {
		n++
	}
	return off, n
}

// PlacePrewarm places every set that a deferred LLC prewarm has not
// yet reached, and clears every stale set of a reused array first,
// leaving the cache exactly as an eager prewarm into a fresh array
// would. Reads through Probe, Lookup and Fill never need it: they
// place a set before they look at it. It is for code that reads the
// whole line array at once, such as Prewarm's eager walk, the
// snapshot codec and state comparisons in tests.
func (c *Cache) PlacePrewarm() {
	for s := 0; c.plan != nil && s < c.Sets; s++ {
		c.placeSet(s)
	}
}
