package main

import (
	"strings"
	"testing"
)

// validOptions is a command line that passes validation; each case
// mutates one flag from here.
func validOptions() options {
	return options{
		workloads:   []string{"mcf"},
		configs:     []string{"catch"},
		n:           10_000,
		warmup:      1_000,
		parallel:    2,
		traceSample: 64,
		traceBuf:    1 << 10,
	}
}

func TestValidate(t *testing.T) {
	tests := []struct {
		name    string
		mutate  func(*options)
		wantErr string // substring; must name the offending flag
	}{
		{"defaults pass", func(o *options) {}, ""},
		{"grid passes", func(o *options) {
			o.workloads = []string{"mcf", "hmmer"}
			o.configs = []string{"baseline-excl", "catch"}
		}, ""},
		{"trace single job passes", func(o *options) { o.traceOut = "t.json" }, ""},
		{"no config", func(o *options) { o.configs = nil }, "-config"},
		{"no workload", func(o *options) { o.workloads = nil }, "-workload"},
		{"unknown config", func(o *options) { o.configs = []string{"no-such-config"} }, `-config: unknown configuration "no-such-config"`},
		{"unknown workload", func(o *options) { o.workloads = []string{"no-such-workload"} }, `-workload: unknown workload "no-such-workload"`},
		{"zero n", func(o *options) { o.n = 0 }, "-n must be positive"},
		{"negative n", func(o *options) { o.n = -5 }, "-n must be positive"},
		{"negative warmup", func(o *options) { o.warmup = -1 }, "-warmup must be >= 0"},
		{"zero parallel", func(o *options) { o.parallel = 0 }, "-parallel must be >= 1"},
		{"zero trace sample", func(o *options) { o.traceSample = 0 }, "-trace-sample must be >= 1"},
		{"zero trace buf", func(o *options) { o.traceBuf = 0 }, "-trace-buf must be >= 1"},
		{"trace with grid", func(o *options) {
			o.traceOut = "t.json"
			o.workloads = []string{"mcf", "hmmer"}
		}, "-trace/-dump-critpath run a single job"},
		{"critpath with grid", func(o *options) {
			o.dumpCrit = true
			o.configs = []string{"baseline-excl", "catch"}
		}, "-trace/-dump-critpath run a single job"},
		{"batch grid passes", func(o *options) {
			o.batch = true
			o.configs = []string{"baseline-excl", "catch"}
		}, ""},
		{"batch with trace", func(o *options) {
			o.batch, o.traceOut = true, "t.json"
		}, "-batch runs through the engine"},
		{"batch with critpath", func(o *options) {
			o.batch, o.dumpCrit = true, true
		}, "-batch runs through the engine"},
		{"sample passes", func(o *options) { o.sample = true }, ""},
		{"sample tuned passes", func(o *options) {
			o.sample, o.sampleIv, o.sampleK = true, 1_000, 3
		}, ""},
		{"sample with trace", func(o *options) {
			o.sample, o.traceOut = true, "t.json"
		}, "-sample runs through the engine"},
		{"sample with critpath", func(o *options) {
			o.sample, o.dumpCrit = true, true
		}, "-sample runs through the engine"},
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
			o.sample, o.sampleIv = true, 3_000 // n = 10_000
		}, "must divide -n"},
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
				if len(o.cfgs) != len(o.configs) {
					t.Fatalf("validate resolved %d configs, want %d", len(o.cfgs), len(o.configs))
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

func TestSplitList(t *testing.T) {
	tests := []struct {
		in   string
		want []string
	}{
		{"mcf", []string{"mcf"}},
		{"mcf,hmmer", []string{"mcf", "hmmer"}},
		{" mcf , hmmer ", []string{"mcf", "hmmer"}},
		{"mcf,,hmmer,", []string{"mcf", "hmmer"}},
		{"", nil},
		{" , ", nil},
	}
	for _, tt := range tests {
		got := splitList(tt.in)
		if len(got) != len(tt.want) {
			t.Errorf("splitList(%q) = %v, want %v", tt.in, got, tt.want)
			continue
		}
		for i := range got {
			if got[i] != tt.want[i] {
				t.Errorf("splitList(%q) = %v, want %v", tt.in, got, tt.want)
				break
			}
		}
	}
}
