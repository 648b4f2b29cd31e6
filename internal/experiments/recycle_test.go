package experiments

import (
	"encoding/json"
	"testing"

	"catch/internal/cache"
	"catch/internal/config"
	"catch/internal/core"
	"catch/internal/trace"
	"catch/internal/workloads"
)

// TestRecycledLLCMatchesFresh is the byte-identity contract of LLC
// array reuse on every registered config: RunST, RunMP and RunBatch on
// systems whose LLC arrays come from a finished job on a larger-LLC
// config must give results JSON-identical to fresh systems'. The donor
// is the registered config with the largest LLC, its LLC doubled so it
// is larger than every config, itself included; after its job every
// line it left invalid is overwritten with garbage, so no set of the
// reused array starts clean.
func TestRecycledLLCMatchesFresh(t *testing.T) {
	const insts, warmup = 3_000, 1_500
	var cfgs []config.SystemConfig
	var donor config.SystemConfig
	for _, name := range ConfigNames() {
		cfg, _ := ConfigByName(name)
		cfgs = append(cfgs, cfg)
		if cfg.LLCSize > donor.LLCSize {
			donor = cfg
		}
	}
	donor.Name, donor.LLCSize = "donor", 2*donor.LLCSize
	w, ok := workloads.ByName("mcf")
	if !ok {
		t.Fatal("workload mcf")
	}
	mix := workloads.Mixes()[0]
	donated := func() *core.LLCSpare {
		sp := new(core.LLCSpare)
		sys := core.NewSystemReusing(donor, sp)
		sys.RunST(w.NewGen(), insts, warmup)
		lines := sys.LLC.Lines()
		lines = lines[:cap(lines)]
		for i := range lines {
			if !lines[i].Valid {
				lines[i] = cache.Line{Tag: uint64(i), FillTime: 1, LastUse: int64(i), OriginLat: 9,
					Valid: true, Dirty: true, Prefetch: cache.PfStream, Meta: 2}
			}
		}
		return sp
	}
	same := func(what string, cfg config.SystemConfig, sp *core.LLCSpare, fresh, got any) {
		t.Helper()
		if sp.TakeReuses() != 1 {
			t.Errorf("%s on %s: the system did not reuse the donor's LLC array", what, cfg.Name)
		}
		a, err := json.Marshal(fresh)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		if string(a) != string(b) {
			t.Errorf("%s on %s: results over a recycled LLC array differ from a fresh system's", what, cfg.Name)
		}
	}

	for _, cfg := range cfgs {
		sp := donated()
		same("RunST", cfg, sp,
			core.NewSystem(cfg).RunST(w.NewGen(), insts, warmup),
			core.NewSystemReusing(cfg, sp).RunST(w.NewGen(), insts, warmup))

		mp := cfg
		mp.Cores = len(mix.Parts)
		sp = donated()
		same("RunMP", cfg, sp,
			core.NewSystem(mp).RunMP(mix.Gens(), insts, warmup),
			core.NewSystemReusing(mp, sp).RunMP(mix.Gens(), insts, warmup))
	}

	m, err := trace.NewStore("").Materialize(&w, insts+warmup)
	if err != nil {
		t.Fatal(err)
	}
	for lo := 0; lo < len(cfgs); lo += 8 { // RunBatch's unit size in the engine
		batch := cfgs[lo:min(lo+8, len(cfgs))]
		spares := make([]*core.LLCSpare, len(batch))
		for k := range spares {
			spares[k] = donated()
		}
		fresh, err := core.RunBatch(m, batch, insts, warmup)
		if err != nil {
			t.Fatal(err)
		}
		got, err := core.RunBatchReusing(m.NewReplay(), batch, insts, warmup, spares)
		if err != nil {
			t.Fatal(err)
		}
		for k, cfg := range batch {
			same("RunBatch", cfg, spares[k], fresh[k], got[k])
		}
	}
}
