package core

import (
	"catch/internal/criticality"
	"catch/internal/interconnect"
	"catch/internal/memory"
	"catch/internal/tact"
	"catch/internal/trace"
)

// The single-thread run is split into composable phases so the
// sampling subsystem can slot snapshot/restore between warmup and
// measurement and measure short windows at arbitrary stream offsets:
//
//	WarmupST  attach (with LLC prewarm) + run the warmup phase
//	AttachST  attach only — the restore path, whose prewarm state is
//	          already inside the restored image
//	BeginMeasure  the warmup-boundary counter reset
//	StepST    advance N instructions (unmeasured gap or measured window)
//	EndMeasure    capture a Result for the window
//
// RunST is exactly WarmupST+BeginMeasure+StepST+EndMeasure; the golden
// fig13 hash pins that the split changed nothing.

// Window marks an open measurement window on core 0.
type Window struct {
	cycles0 int64
}

// WarmupST attaches gen to core 0 (prewarming the LLC with the
// workload's declared resident regions) and runs the warmup phase.
func (s *System) WarmupST(gen trace.Generator, warmup int64) {
	s.Sims[0].SetWorkload(gen)
	s.StepST(warmup)
}

// AttachST attaches gen to core 0 without prewarming the LLC. It is
// the restore-path counterpart of SetWorkload: a restored snapshot
// already contains the prewarm fills (and everything the warmup run
// did to them), so re-prewarming would corrupt the image.
func (s *System) AttachST(gen trace.Generator) { s.Sims[0].attach(gen) }

// BeginMeasure performs the warmup-boundary reset on core 0 and the
// shared LLC/DRAM/ring counters, opening a measurement window.
func (s *System) BeginMeasure() Window {
	c := s.Sims[0]
	c.resetStats()
	s.resetSharedStats()
	return Window{cycles0: c.CPU.Cycles()}
}

// resetSharedStats zeroes the counters every core shares: the LLC,
// DRAM and ring.
func (s *System) resetSharedStats() {
	s.LLC.ResetStats()
	s.Mem.Stats = memory.Stats{}
	s.Ring.Stats = interconnect.Stats{}
}

// StepST advances core 0 by n instructions of its attached generator.
// The scratch record lives on the CoreSim (Step's argument escapes
// into the port closures), so repeated short windows stay
// allocation-free.
func (s *System) StepST(n int64) {
	c := s.Sims[0]
	for i := int64(0); i < n; i++ {
		c.gen.Next(&c.batchIn)
		c.CPU.Step(&c.batchIn)
	}
}

// EndMeasure captures core 0's Result for the open window.
func (s *System) EndMeasure(win Window) Result {
	return s.Sims[0].result(win.cycles0)
}

// CumulativeBase records the run-cumulative counters that BeginMeasure
// does not reset (criticality detector, TACT engine, code prefetcher).
// Capturing one before a window and rebasing with EndMeasureDelta
// yields a window-local view of those counters too.
type CumulativeBase struct {
	Crit          criticality.Stats
	Tact          tact.Stats
	CodePfLearned uint64
	CodePfIssued  uint64
}

// CaptureCumulative reads core 0's run-cumulative counters.
func (s *System) CaptureCumulative() CumulativeBase {
	c := s.Sims[0]
	var b CumulativeBase
	if c.Crit != nil {
		b.Crit = c.Crit.Snapshot()
	}
	if c.Tact != nil {
		b.Tact = c.Tact.Stats
		if c.Tact.Code != nil {
			b.CodePfLearned = c.Tact.Code.Learned
			b.CodePfIssued = c.Tact.Code.Issued
		}
	}
	return b
}

// EndMeasureDelta is EndMeasure with the run-cumulative counters
// rebased against base, so every counter in the Result — including the
// criticality and TACT blocks — covers only the open window.
func (s *System) EndMeasureDelta(win Window, base CumulativeBase) Result {
	r := s.EndMeasure(win)
	// The Result's histogram normally aliases the live one (terminal
	// results never see another reset); window results do, so they get
	// their own copy.
	r.Hier.TactTimeliness = r.Hier.TactTimeliness.Clone()
	r.Crit = r.Crit.Delta(base.Crit)
	r.Tact = r.Tact.Delta(base.Tact)
	r.CodePfLearned -= base.CodePfLearned
	r.CodePfIssued -= base.CodePfIssued
	return r
}
