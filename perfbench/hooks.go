package main

import (
	"time"

	"catch/internal/cache"
	"catch/internal/core"
	"catch/internal/cpu"
	"catch/internal/trace"
)

// hookEvery is the sampling period of the hook timers: every call is
// counted, one in hookEvery is timed, so the traced run stays close to
// the untraced one.
const hookEvery = 32

// epoch anchors now(); it is set once at start-up and never changes.
var epoch = time.Now()

// now is a monotonic nanosecond clock.
func now() int64 { return int64(time.Since(epoch)) }

// hookStat counts every call of one hook and times a sample of them.
type hookStat struct {
	calls, timed uint64
	ns           int64
}

// sampled counts a call and reports whether to time it.
func (h *hookStat) sampled(phase uint64) bool {
	h.calls++
	return (h.calls+phase)%hookEvery == 0
}

func (h *hookStat) add(d int64) {
	h.timed++
	h.ns += d
}

// mean is the timed calls' mean cost, less the timer's own cost.
func (h *hookStat) mean(timerNs float64) float64 {
	if h.timed == 0 {
		return 0
	}
	return max(0, float64(h.ns)/float64(h.timed)-timerNs)
}

// total estimates the time spent in all calls.
func (h *hookStat) total(timerNs float64) float64 { return h.mean(timerNs) * float64(h.calls) }

// hooks times the simulator's layer boundaries from outside: the trace
// generator, the exported cpu.Ports callbacks (cache hierarchy and
// baseline prefetchers, TACT dispatch, criticality retire) and TACT's
// prefetch issue. One hooks value serves one goroutine.
type hooks struct {
	phase                                            uint64
	gen, load, store, fetch, dispatch, issue, retire hookStat

	inDispatch bool
	issueNs    int64 // issue time inside the dispatch call being timed
}

// timerCost measures the cost of one back-to-back now() pair.
func timerCost() float64 {
	var ds []float64
	for i := 0; i < 2000; i++ {
		t0 := now()
		ds = append(ds, float64(now()-t0))
	}
	return median(ds)
}

// timedGen wraps a generator, timing a sample of Next calls. It
// forwards the memory-content oracle and prewarm regions, which the
// system discovers by type assertion.
type timedGen struct {
	trace.Generator
	h *hooks
}

func (g *timedGen) Next(in *trace.Inst) bool {
	if !g.h.gen.sampled(g.h.phase) {
		return g.Generator.Next(in)
	}
	t0 := now()
	ok := g.Generator.Next(in)
	g.h.gen.add(now() - t0)
	return ok
}

func (g *timedGen) ValueAt(addr uint64) (uint64, bool) {
	if vs, ok := g.Generator.(trace.ValueSource); ok {
		return vs.ValueAt(addr)
	}
	return 0, false
}

func (g *timedGen) PrewarmRegions() []trace.Region {
	if pw, ok := g.Generator.(trace.Prewarmer); ok {
		return pw.PrewarmRegions()
	}
	return nil
}

// wrap installs the timers around every core's ports and TACT issue.
func (h *hooks) wrap(sys *core.System) {
	for _, c := range sys.Sims {
		p := &c.CPU.Ports
		load, store, fetch, dispatch, retire := p.Load, p.StoreCommit, p.FetchLine, p.OnDispatch, p.OnRetire
		p.Load = func(in *trace.Inst, ready int64) (int64, cache.HitLevel) {
			if !h.load.sampled(h.phase) {
				return load(in, ready)
			}
			t0 := now()
			lat, lvl := load(in, ready)
			h.load.add(now() - t0)
			return lat, lvl
		}
		p.StoreCommit = func(in *trace.Inst, commit int64) {
			if !h.store.sampled(h.phase) {
				store(in, commit)
				return
			}
			t0 := now()
			store(in, commit)
			h.store.add(now() - t0)
		}
		p.FetchLine = func(line uint64, t int64) int64 {
			if !h.fetch.sampled(h.phase) {
				return fetch(line, t)
			}
			t0 := now()
			lat := fetch(line, t)
			h.fetch.add(now() - t0)
			return lat
		}
		p.OnRetire = func(rt *cpu.Retired) {
			if !h.retire.sampled(h.phase) {
				retire(rt)
				return
			}
			t0 := now()
			retire(rt)
			h.retire.add(now() - t0)
		}
		// Dispatch is timed net of the prefetch issues it triggers: every
		// issue inside a timed dispatch is timed and subtracted.
		p.OnDispatch = func(in *trace.Inst, t, seq int64) {
			if !h.dispatch.sampled(h.phase) {
				dispatch(in, t, seq)
				return
			}
			h.inDispatch, h.issueNs = true, 0
			t0 := now()
			dispatch(in, t, seq)
			d := now() - t0
			h.inDispatch = false
			h.dispatch.add(d - h.issueNs)
		}
		if c.Tact == nil {
			continue
		}
		issue := c.Tact.IssueData
		c.Tact.IssueData = func(addr uint64, t int64) {
			if h.inDispatch {
				h.issue.calls++
				t0 := now()
				issue(addr, t)
				d := now() - t0
				h.issue.add(d)
				h.issueNs += d
				return
			}
			if !h.issue.sampled(h.phase) {
				issue(addr, t)
				return
			}
			t0 := now()
			issue(addr, t)
			h.issue.add(now() - t0)
		}
	}
}
