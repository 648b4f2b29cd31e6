package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math"
	"runtime"
	"testing"

	"catch/internal/runner"
)

// Sampling budget for the smoke test: 50 intervals of 600
// instructions, 5 representatives per job — exactly 10x fewer measured
// instructions than the full run. Chosen by scanning the (interval, k)
// tunings that keep the 10x reduction: 600x5 had the lowest worst-case
// normalized-performance error on this grid (~1.1%, vs 1.3% for 1500x2
// and 5% for 1000x3).
const (
	smokeSampleInterval = 600
	smokeSampleK        = 5
	// smokeMaxRelErr bounds the per-workload error of the sampled
	// normalized performance (config IPC / noL2 IPC) against the exact
	// run. Sampling both sides of the ratio with the same
	// representatives cancels much of the raw-IPC error.
	smokeMaxRelErr = 0.02
)

// goldenSampledFig13Hash pins the sampled path byte for byte: the
// SHA-256 of json.Marshal of the sampled fig13 grid that
// TestSampleSmokeFig13 computes (goldenFig13Budget, interval
// smokeSampleInterval, K smokeSampleK). The accuracy bound alone lets
// a change move sampled results by up to 2% unseen. Only an intended
// change to sampling or extrapolation may re-record it.
const goldenSampledFig13Hash = "2026270a9f2a48b40b85900b59c51291b308cc258effd3386dd5ea382e102b5c"

// TestSampleSmokeFig13 is the end-to-end accuracy gate for
// representative-interval sampling: the fig13 grid run through a
// sampling engine must reproduce every per-workload normalized
// performance ratio within smokeMaxRelErr of the exact run while
// measuring at least 10x fewer instructions — and must actually take
// the sampling path (no fallbacks).
func TestSampleSmokeFig13(t *testing.T) {
	b := goldenFig13Budget
	_, cfgs := fig13Configs()

	UseEngine(runner.New(runner.Options{
		Workers: runtime.GOMAXPROCS(0),
		Cache:   runner.NewCache(""),
	}))
	full := runGrid(cfgs, b)

	seng := runner.New(runner.Options{
		Workers: runtime.GOMAXPROCS(0),
		Cache:   runner.NewCache(""),
		Sample:  true, SampleInterval: smokeSampleInterval, SampleK: smokeSampleK,
	})
	UseEngine(seng)
	defer UseEngine(nil)
	sampled := runGrid(cfgs, b)

	raw, err := json.Marshal(sampled)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(raw)
	if got := hex.EncodeToString(sum[:]); got != goldenSampledFig13Hash {
		t.Errorf("sampled fig13 hash changed:\n got %s\nwant %s\n"+
			"If sampling or extrapolation intentionally changed, update goldenSampledFig13Hash in sample_test.go.",
			got, goldenSampledFig13Hash)
	}

	jobs := len(cfgs) * len(b.workloads())
	if got := seng.Sampled(); got != uint64(jobs) {
		t.Fatalf("Sampled() = %d, want %d (every job)", got, jobs)
	}
	if n := seng.SampleFallbacks(); n != 0 {
		t.Fatalf("engine fell back to full simulation %d times, want 0", n)
	}

	var fullInsts, measuredInsts int64
	var worst float64
	var worstAt string
	for c := 1; c < len(cfgs); c++ {
		for w := range full[c] {
			fr := ratio(full[c][w].IPC, full[0][w].IPC)
			sr := ratio(sampled[c][w].IPC, sampled[0][w].IPC)
			if fr == 0 {
				t.Fatalf("%s/%s: exact normalized performance is zero", cfgs[c].Name, full[c][w].Workload)
			}
			relErr := math.Abs(sr/fr - 1)
			if relErr > worst {
				worst, worstAt = relErr, cfgs[c].Name+"/"+full[c][w].Workload
			}
			if relErr > smokeMaxRelErr {
				t.Errorf("%s/%s: sampled normalized perf %.4f vs exact %.4f (rel err %.2f%% > %.0f%%)",
					cfgs[c].Name, full[c][w].Workload, sr, fr, 100*relErr, 100*smokeMaxRelErr)
			}
		}
	}
	for c := range sampled {
		for w := range sampled[c] {
			r := &sampled[c][w]
			if r.Sample == nil {
				t.Fatalf("%s/%s: result carries no SampleMeta", cfgs[c].Name, r.Workload)
			}
			measuredInsts += r.Sample.MeasuredInsts
			fullInsts += full[c][w].Insts
		}
	}
	if speedup := float64(fullInsts) / float64(measuredInsts); speedup < 10 {
		t.Errorf("measured-instruction reduction = %.1fx, want >= 10x (%d of %d insts)",
			speedup, measuredInsts, fullInsts)
	}
	t.Logf("sampled fig13: %d jobs, %.1fx fewer measured insts, worst normalized-perf rel err %.3f%% (%s)",
		jobs, float64(fullInsts)/float64(measuredInsts), 100*worst, worstAt)
}

// TestSampleMetaErrorsFinite sanity-checks the error estimates the
// planner attaches: finite, non-negative, and present for every
// sampled result of the smoke grid's first config.
func TestSampleMetaErrorsFinite(t *testing.T) {
	seng := runner.New(runner.Options{
		Workers: 2, Cache: runner.NewCache(""),
		Sample: true, SampleInterval: smokeSampleInterval, SampleK: smokeSampleK,
	})
	UseEngine(seng)
	defer UseEngine(nil)
	b := Budget{Insts: goldenFig13Budget.Insts, Warmup: goldenFig13Budget.Warmup, Workloads: 4}
	rs := runConfig("nol2-6.5", b)
	for i := range rs {
		s := rs[i].Sample
		if s == nil {
			t.Fatalf("%s: no SampleMeta", rs[i].Workload)
		}
		for name, v := range map[string]float64{
			"relErrIPC": s.RelErrIPC, "relErrL1DMiss": s.RelErrL1DMiss, "relErrMemLoads": s.RelErrMemLoads,
		} {
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				t.Errorf("%s: %s = %v, want finite and >= 0", rs[i].Workload, name, v)
			}
		}
		if s.TotalInsts != b.Insts || s.MeasuredInsts != smokeSampleK*smokeSampleInterval {
			t.Errorf("%s: meta insts = %d/%d, want %d/%d",
				rs[i].Workload, s.MeasuredInsts, s.TotalInsts, smokeSampleK*smokeSampleInterval, b.Insts)
		}
	}
}
