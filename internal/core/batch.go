package core

import (
	"fmt"

	"catch/internal/config"
	"catch/internal/trace"
)

// batchChunk is the lock-step granularity: each system consumes this
// many instructions of the shared trace before the kernel switches to
// the next system. Large enough to amortize re-entering a system's
// working set into the host caches, small enough that the active trace
// window stays resident across all systems in the batch.
const batchChunk = 1024

// RunBatch steps one private System per configuration through the same
// materialized trace in lock-step, reproducing RunST's semantics
// exactly for each: prewarm, `warmup` warmup instructions, a stats
// reset at the warmup boundary, then `insts` measured instructions.
// The trace is decoded once for the whole batch instead of once per
// configuration, so results are byte-identical to per-config RunST
// runs over an equivalent replay while the per-instruction trace work
// is amortized len(cfgs) ways.
func RunBatch(m *trace.Materialized, cfgs []config.SystemConfig, insts, warmup int64) ([]Result, error) {
	return RunBatchReusing(m, cfgs, insts, warmup, nil)
}

// RunBatchReusing is RunBatch with the system of cfgs[k] built by
// NewSystemReusing over spares[k] (a nil or missing spare builds a
// fresh LLC). As there, hand a spare on only once the call has
// returned normally.
func RunBatchReusing(m *trace.Materialized, cfgs []config.SystemConfig, insts, warmup int64, spares []*LLCSpare) ([]Result, error) {
	if insts <= 0 {
		return nil, fmt.Errorf("core: batch insts must be positive, got %d", insts)
	}
	if warmup < 0 {
		return nil, fmt.Errorf("core: batch warmup must be non-negative, got %d", warmup)
	}
	total := warmup + insts
	buf := m.Insts()
	if int64(len(buf)) < total {
		return nil, fmt.Errorf("core: materialized trace %s holds %d instructions, need %d",
			m.Name(), len(buf), total)
	}
	buf = buf[:total]
	out := make([]Result, len(cfgs))
	if len(cfgs) == 0 {
		return out, nil
	}
	sims := make([]*System, len(cfgs))
	for k := range cfgs {
		var sp *LLCSpare
		if k < len(spares) {
			sp = spares[k]
		}
		sims[k] = NewSystemReusing(cfgs[k], sp)
		sims[k].Sims[0].SetWorkload(m.NewReplay())
	}
	for base := int64(0); base < warmup; base += batchChunk {
		end := min(base+batchChunk, warmup)
		for _, s := range sims {
			stepChunk(s.Sims[0], buf[base:end])
		}
	}
	// Warmup boundary, mirroring RunST: measurement counters reset,
	// timing and learned state preserved.
	wins := make([]Window, len(sims))
	for k, s := range sims {
		wins[k] = s.BeginMeasure()
	}
	for base := warmup; base < total; base += batchChunk {
		end := min(base+batchChunk, total)
		for _, s := range sims {
			stepChunk(s.Sims[0], buf[base:end])
		}
	}
	for k, s := range sims {
		out[k] = s.EndMeasure(wins[k])
	}
	return out, nil
}

// stepChunk advances one core through a chunk of the shared trace. The
// shared records must stay pristine, and a branch predictor rewrites
// in.Mispred (cpu.Core.Step's only mutation of *in), so
// predictor-equipped cores step a private copy of each record; every
// other core steps the shared records in place.
//
//catch:hotpath
func stepChunk(c *CoreSim, chunk []trace.Inst) {
	if c.CPU.BP != nil {
		in := &c.batchIn
		for i := range chunk {
			*in = chunk[i]
			c.CPU.Step(in)
		}
		return
	}
	for i := range chunk {
		c.CPU.Step(&chunk[i])
	}
}
