package experiments

import (
	"testing"

	"catch/internal/cache"
	"catch/internal/config"
	"catch/internal/criticality"
	"catch/internal/runner"
)

// goldenJobKeys pins runner.Job.Key for a fixed set of jobs. The key is
// the content address of a result: it names every on-disk result cache
// entry, it is every result's ETag, and it places every job on the
// cluster ring. Changing any of these values orphans every on-disk
// result cache written before the change and moves every cluster
// placement, so an encoder rewrite must reproduce them byte for byte.
var goldenJobKeys = map[string]string{
	"st/baseline-excl":         "de398b079e0d437cd81cf0f0a8e5738df2cb1d207ac41030eb5bb0cab3c06516",
	"st/baseline-incl":         "8fdbe9fab9e57c7aaa68bfe56f47fb6a467572135f9e7246ff609e5adc8efdef",
	"st/catch":                 "13344c5cb48fd378e3a34cac51a0d2a0594d7dff8b44f3788ec9d8afa44f5599",
	"st/catch-incl":            "c0150c30174ab1e59f4576defb28c0628110dd1233e89be4ada469e547313122",
	"st/nol2-6.5":              "677c13a390abd6024872122d8f29f31f3dce3f145e2d0d19b98229f511120e63",
	"st/nol2-6.5-catch":        "b6dcf8d391f296b6e614e33f516f2af2dabbb014479335bb548cfe7538b4883c",
	"st/nol2-9.5":              "ad3812f6971b7a33e1bf03dad7ae4f1f74c045c3d909516f3eb3d12398ed0ac0",
	"st/nol2-9.5-catch":        "2d046658acc9de5e0f5f57e131823333068d10272c8b1e63870406fab6129546",
	"st/nol2-incl":             "1ee16d19b1fcc68104529a4aa3795c85e66ac6309a2310d7382968b487ec1218",
	"st/nol2-incl-9mb-catch":   "356bf46aead21dac4daa3eb4f559989b4a65d5d2210302199cf4c55222fc49d2",
	"st/nol2-incl-catch":       "4bc83d3371ca6448d7320d5b1831c2a2387da33e461c521ff24b6d23f7e4ce4c",
	"fig13/nol2-6.5":           "cf678953067515b73adbad9c10c9528ca314e34c761697b9446a8866f5f6c2ec",
	"fig13/nol2-catch-Code":    "cdc5c735d9ad81e18e98ba2f6a368ad710c5dd51feb66e73da2394149be4d66a",
	"fig13/nol2-catch-+CROSS":  "24cfdc35f49414fd979e91660fb9b934ba3bce020973973269afcca544cd9d1e",
	"fig13/nol2-catch-+Deep":   "f6c179bc23da8d40c92ab01ff746c440a9be10dcb4adeb9dd5fc171187d3b2be",
	"fig13/nol2-catch-+Feeder": "08025064ccb981c1028dd8dc50dbc0da5ffb737e798022903344e14906556651",
	"mp4":                      "9d5c653148ff86478efa66435aaaf1670510ff2c775e02bfc5df166121c1c3bc",
	"sampled":                  "f5a31ceee985cd86126032a9a29cf11a52b880da7542b0ff12beac2e41a5ac98",
	"convert":                  "67c83facd3ce00587e7e51e8c5af33de420f4133086a9af876312afb8d2dc4be",
}

// goldenKeyJobs builds the pinned jobs: one single-thread job on every
// registered config and on each rung of the fig13 ladder, a 4-core
// multi-programmed job, a sampled job and a latency-conversion job.
func goldenKeyJobs(t *testing.T) map[string]runner.Job {
	t.Helper()
	jobs := make(map[string]runner.Job)
	for _, name := range ConfigNames() {
		cfg, ok := ConfigByName(name)
		if !ok {
			t.Fatalf("registered config %q does not resolve", name)
		}
		jobs["st/"+name] = runner.STJob(cfg, "mcf", 40_000, 8_000)
	}
	_, ladder := fig13Configs()
	for _, cfg := range ladder {
		jobs["fig13/"+cfg.Name] = runner.STJob(cfg, "hmmer", 30_000, 15_000)
	}
	catch, _ := ConfigByName("catch")
	jobs["mp4"] = runner.MPJob(catch, []string{"mcf", "hmmer", "gcc", "povray"}, 20_000, 5_000)
	sampled := runner.STJob(catch, "gcc", 40_000, 8_000)
	sampled.Sample = &runner.SampleSpec{Interval: 4_000, K: 3}
	jobs["sampled"] = sampled
	base, _ := ConfigByName("baseline-excl")
	conv := config.WithConvert(base, config.ConvertSpec{From: cache.HitLLC, ToLat: config.MemLatApprox, OnlyNonCritical: true},
		criticality.MaskLLC, "convert-noncrit")
	jobs["convert"] = runner.STJob(conv, "povray", 40_000, 8_000)
	return jobs
}

// TestJobKeyGolden pins the job keys to their recorded values. A
// mismatch means the key's encoding changed: every on-disk result cache
// would be orphaned and every cluster placement would move. Restore
// the encoding rather than re-recording, unless the format change is
// deliberate and announced as one.
func TestJobKeyGolden(t *testing.T) {
	jobs := goldenKeyJobs(t)
	if len(jobs) != len(goldenJobKeys) {
		t.Errorf("%d pinned jobs but %d recorded keys", len(jobs), len(goldenJobKeys))
	}
	for name, job := range jobs {
		want, ok := goldenJobKeys[name]
		if !ok {
			t.Errorf("job %s has no recorded key; it keys to %s", name, job.Key())
			continue
		}
		if got := job.Key(); got != want {
			t.Errorf("job %s: key %s, recorded %s", name, got, want)
		}
	}
}
