package core

import (
	"fmt"

	"catch/internal/config"
	"catch/internal/trace"
)

// batchChunk is the lock-step granularity: the kernel pulls this many
// instructions from the generator, then steps each system through them
// before pulling the next chunk. Large enough to amortize re-entering a
// system's working set into the host caches, small enough that the
// chunk stays resident across all systems in the batch.
const batchChunk = 1024

// RunBatch is RunBatchReusing over a replay of the recording m. A
// recording shorter than warmup + insts is an error.
func RunBatch(m *trace.Materialized, cfgs []config.SystemConfig, insts, warmup int64) ([]Result, error) {
	out, _, err := RunBatchReusing(m.NewReplay(), cfgs, insts, warmup)
	return out, err
}

// RunBatchReusing steps one private System per configuration through
// gen's stream in lock-step, reproducing RunST's semantics exactly for
// each: prewarm, `warmup` warmup instructions, a stats reset at the
// warmup boundary, then `insts` measured instructions. Only the kernel
// calls gen.Next, one chunk ahead of the systems; each system takes gen
// as its workload for naming, prewarm regions and ValueAt, whose values
// are pure functions of the address. So results are byte-identical to
// per-config RunST runs, and the stream is generated once per batch and
// never held whole. It also reports how many of the systems reused a
// pooled LLC array (see NewSystem), and releases every system when it
// returns; a panic drops them instead.
func RunBatchReusing(gen trace.Generator, cfgs []config.SystemConfig, insts, warmup int64) (out []Result, reused int, err error) {
	if insts <= 0 {
		return nil, 0, fmt.Errorf("core: batch insts must be positive, got %d", insts)
	}
	if warmup < 0 {
		return nil, 0, fmt.Errorf("core: batch warmup must be non-negative, got %d", warmup)
	}
	out = make([]Result, len(cfgs))
	if len(cfgs) == 0 {
		return out, 0, nil
	}
	sims := make([]*System, len(cfgs))
	for k := range cfgs {
		sims[k] = NewSystem(cfgs[k])
		if sims[k].LLC.Reused() {
			reused++
		}
		sims[k].Sims[0].SetWorkload(gen)
	}
	buf := make([]trace.Inst, batchChunk)
	// step pulls n more instructions from gen a chunk at a time and
	// steps every system through each chunk.
	step := func(n int64) error {
		for ; n > 0; n -= batchChunk {
			chunk := buf[:min(n, batchChunk)]
			for i := range chunk {
				if !gen.Next(&chunk[i]) {
					return fmt.Errorf("core: trace %s ends before %d instructions", gen.Name(), warmup+insts)
				}
			}
			for _, s := range sims {
				stepChunk(s.Sims[0], chunk)
			}
		}
		return nil
	}
	wins := make([]Window, len(sims))
	if err = step(warmup); err == nil {
		// Warmup boundary, mirroring RunST: measurement counters reset,
		// timing and learned state preserved.
		for k, s := range sims {
			wins[k] = s.BeginMeasure()
		}
		err = step(insts)
	}
	for k, s := range sims {
		if err == nil {
			out[k] = s.EndMeasure(wins[k])
		}
		s.Release()
	}
	if err != nil {
		return nil, reused, err
	}
	return out, reused, nil
}

// stepChunk advances one core through a chunk of the shared stream.
// The shared records must stay pristine, and a branch predictor rewrites
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
