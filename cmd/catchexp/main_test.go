package main

import (
	"strings"
	"testing"

	"catch/internal/experiments"
)

func validOptions() options {
	return options{exp: "fig10", insts: 10_000, warmup: 1_000, mixes: 4, parallel: 2}
}

func TestValidate(t *testing.T) {
	tests := []struct {
		name    string
		mutate  func(*options)
		wantErr string // substring; must name the offending flag
	}{
		{"defaults pass", func(o *options) {}, ""},
		{"all experiments", func(o *options) { o.exp = "all" }, ""},
		{"zero workloads means all", func(o *options) { o.nwl = 0 }, ""},
		{"unknown experiment", func(o *options) { o.exp = "fig99" }, `-exp: unknown experiment "fig99"`},
		{"zero insts", func(o *options) { o.insts = 0 }, "-insts must be positive"},
		{"negative warmup", func(o *options) { o.warmup = -1 }, "-warmup must be >= 0"},
		{"negative workloads", func(o *options) { o.nwl = -1 }, "-workloads must be >= 0"},
		{"negative mixes", func(o *options) { o.mixes = -1 }, "-mixes must be >= 0"},
		{"zero parallel", func(o *options) { o.parallel = 0 }, "-parallel must be >= 1"},
		{"sample passes", func(o *options) { o.sample = true }, ""},
		{"sample tuned passes", func(o *options) {
			o.sample, o.sampleIv, o.sampleK = true, 1_000, 3
		}, ""},
		{"sample-interval without sample", func(o *options) {
			o.sampleIv = 1_000
		}, "-sample-interval/-sample-k only apply with -sample"},
		{"sample-k without sample", func(o *options) {
			o.sampleK = 4
		}, "-sample-interval/-sample-k only apply with -sample"},
		{"negative sample-interval", func(o *options) {
			o.sample, o.sampleIv = true, -1
		}, "-sample-interval must be >= 0"},
		{"negative sample-k", func(o *options) {
			o.sample, o.sampleK = true, -2
		}, "-sample-k must be >= 0"},
		{"indivisible sample-interval", func(o *options) {
			o.sample, o.sampleIv = true, 3_000 // insts = 10_000
		}, "must divide -insts"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			o := validOptions()
			tt.mutate(&o)
			err := validate(&o)
			if tt.wantErr == "" {
				if err != nil {
					t.Fatalf("validate() = %v, want nil", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("validate() = nil, want error containing %q", tt.wantErr)
			}
			if !strings.Contains(err.Error(), tt.wantErr) {
				t.Fatalf("validate() = %q, want substring %q", err, tt.wantErr)
			}
		})
	}
}

// TestValidateResolvesIDs pins the id resolution: a single experiment
// resolves to itself, "all" to the full registry.
func TestValidateResolvesIDs(t *testing.T) {
	o := validOptions()
	if err := validate(&o); err != nil {
		t.Fatal(err)
	}
	if len(o.ids) != 1 || o.ids[0] != "fig10" {
		t.Fatalf("ids = %v, want [fig10]", o.ids)
	}

	o = validOptions()
	o.exp = "all"
	if err := validate(&o); err != nil {
		t.Fatal(err)
	}
	if len(o.ids) != len(experiments.IDs()) {
		t.Fatalf("ids = %v, want all %d experiment ids", o.ids, len(experiments.IDs()))
	}
}

// TestResumeCommand pins the exact command an interrupted run prints:
// it must reconstruct every flag the job keys depend on, plus the
// cache, so pasting it re-runs the same evaluation over the same cache
// and computes only the unfinished jobs.
func TestResumeCommand(t *testing.T) {
	o := validOptions()
	got := resumeCommand(&o, "run-cache", false, false)
	want := `catchexp -exp fig10 -insts 10000 -warmup 1000 -workloads 0 -mixes 4 -parallel 2 -cache "run-cache"`
	if got != want {
		t.Fatalf("resumeCommand =\n  %s\nwant\n  %s", got, want)
	}

	got = resumeCommand(&o, "/tmp/cache dir", true, true)
	for _, part := range []string{`-cache "/tmp/cache dir"`, "-json", "-batch"} {
		if !strings.Contains(got, part) {
			t.Fatalf("resumeCommand %q lacks %q", got, part)
		}
	}

	// Sampling flags are part of the job keys, so the resume command
	// must carry them too.
	o = validOptions()
	o.sample, o.sampleIv, o.sampleK = true, 1_000, 3
	got = resumeCommand(&o, "c", false, false)
	for _, part := range []string{"-sample ", "-sample-interval 1000", "-sample-k 3"} {
		if !strings.Contains(got+" ", part) {
			t.Fatalf("resumeCommand %q lacks %q", got, part)
		}
	}
}
