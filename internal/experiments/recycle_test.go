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

// TestRecycledLLCMatchesFresh is the byte-identity contract of pooled
// LLC arrays on every registered config: RunST, RunMP and RunBatch on
// systems whose LLC arrays a finished job on a larger-LLC config
// released must give results JSON-identical to systems over fresh
// arrays. The donor is the registered config with the largest LLC,
// its LLC doubled so it is larger than every config, itself included,
// and under SRRIP; after its job as many garbage lines (valid, dirty,
// prefetched, aged) as a set has ways are filled into every set, so no
// set of the reused array starts clean. The pool is process-wide, so the
// test takes control of it: before it donates, it holds every listed
// array that fits the systems under test, so those take the donor's.
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
	donor.Name, donor.LLCSize, donor.LLCPolicy = "donor", 2*donor.LLCSize, "srrip"
	w, ok := workloads.ByName("mcf")
	if !ok {
		t.Fatal("workload mcf")
	}
	mix := workloads.Mixes()[0]

	// held keeps systems in use, so the pool cannot hand their arrays
	// out; they are dropped, not released, once the systems under test
	// have their arrays.
	var held []*core.System
	// fresh returns a system of cfg over a freshly made LLC array,
	// holding every listed array that fits cfg on the way.
	fresh := func(cfg config.SystemConfig) *core.System {
		for {
			sys := core.NewSystem(cfg)
			if !sys.LLC.Reused() {
				return sys
			}
			held = append(held, sys)
		}
	}
	// donate runs n donor jobs at once, fills their LLCs with garbage
	// and releases them, listing n donor arrays.
	donate := func(n int) {
		sys := make([]*core.System, n)
		for k := range sys {
			sys[k] = core.NewSystem(donor)
			sys[k].RunST(w.NewGen(), insts, warmup)
			llc := sys[k].LLC
			for set := 0; set < llc.Sets; set++ {
				for way := 0; way < llc.Cfg.Ways; way++ {
					tag := uint64(way+1)<<32*uint64(llc.Sets) + uint64(set)
					llc.Fill(tag<<6, 1, 9, true, cache.PfStream)
				}
			}
		}
		for _, s := range sys {
			s.Release()
		}
	}
	same := func(what string, cfg config.SystemConfig, fresh, got any) {
		t.Helper()
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
	// reusing builds a system of cfg that must take a donor's array.
	reusing := func(what string, cfg config.SystemConfig) *core.System {
		t.Helper()
		sys := core.NewSystem(cfg)
		if !sys.LLC.Reused() {
			t.Fatalf("%s on %s: the system did not reuse the donor's LLC array", what, cfg.Name)
		}
		return sys
	}

	for _, cfg := range cfgs {
		sys := fresh(cfg)
		want := sys.RunST(w.NewGen(), insts, warmup)
		donate(1)
		got := reusing("RunST", cfg)
		same("RunST", cfg, want, got.RunST(w.NewGen(), insts, warmup))
		got.Release()
		held = nil

		mp := cfg
		mp.Cores = len(mix.Parts)
		sys = fresh(mp)
		wantMP := sys.RunMP(mix.Gens(), insts, warmup)
		donate(1)
		got = reusing("RunMP", mp)
		same("RunMP", cfg, wantMP, got.RunMP(mix.Gens(), insts, warmup))
		got.Release()
		held = nil
	}

	m, err := trace.NewStore("").Materialize(&w, insts+warmup)
	if err != nil {
		t.Fatal(err)
	}
	for lo := 0; lo < len(cfgs); lo += 8 { // RunBatch's unit size in the engine
		batch := cfgs[lo:min(lo+8, len(cfgs))]
		smallest := batch[0]
		for _, cfg := range batch {
			if cfg.LLCSize < smallest.LLCSize {
				smallest = cfg
			}
		}
		// An array that fits any config of the batch fits the smallest,
		// so holding those leaves none for the batch's systems.
		held = append(held, fresh(smallest))
		want, reused, err := core.RunBatchReusing(m.NewReplay(), batch, insts, warmup)
		if err != nil || reused != 0 {
			t.Fatalf("fresh RunBatch: %d systems reused an array, error %v", reused, err)
		}
		held = append(held, fresh(smallest)) // the arrays it released
		donate(len(batch))
		got, reused, err := core.RunBatchReusing(m.NewReplay(), batch, insts, warmup)
		if err != nil {
			t.Fatal(err)
		}
		if reused != len(batch) {
			t.Errorf("RunBatch over %d donor arrays reused %d", len(batch), reused)
		}
		for k, cfg := range batch {
			same("RunBatch", cfg, want[k], got[k])
		}
		held = nil
	}
}
