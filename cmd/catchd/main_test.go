package main

import (
	"strings"
	"testing"
	"time"
)

func validOptions() options {
	return options{
		addr: ":8080", parallel: 4, inflight: 8, timeout: time.Minute, retries: 1,
		shedAfter: 16, reqTimeout: time.Minute, backoff: 100 * time.Millisecond,
		brThresh: 5, brCooldown: 32, inject: "seed=1,disk-read=0.5:2,slow=0.1@2ms",
	}
}

func TestValidate(t *testing.T) {
	tests := []struct {
		name    string
		mutate  func(*options)
		wantErr string // substring; must name the offending flag
	}{
		{"defaults pass", func(o *options) {}, ""},
		{"zero means auto", func(o *options) {
			o.parallel, o.inflight, o.timeout, o.retries = 0, 0, 0, 0
			o.shedAfter, o.reqTimeout, o.backoff, o.brThresh, o.brCooldown, o.inject =
				0, 0, 0, 0, 0, ""
		}, ""},
		{"empty addr", func(o *options) { o.addr = "" }, "-addr must not be empty"},
		{"negative parallel", func(o *options) { o.parallel = -1 }, "-parallel must be >= 0"},
		{"negative inflight", func(o *options) { o.inflight = -2 }, "-max-inflight must be >= 0"},
		{"negative timeout", func(o *options) { o.timeout = -time.Second }, "-job-timeout must be >= 0"},
		{"negative retries", func(o *options) { o.retries = -1 }, "-retries must be >= 0"},
		{"negative shed-after", func(o *options) { o.shedAfter = -1 }, "-shed-after must be >= 0"},
		{"negative request-timeout", func(o *options) { o.reqTimeout = -time.Second }, "-request-timeout must be >= 0"},
		{"negative retry-backoff", func(o *options) { o.backoff = -time.Second }, "-retry-backoff must be >= 0"},
		{"negative breaker-threshold", func(o *options) { o.brThresh = -1 }, "-breaker-threshold must be >= 0"},
		{"negative breaker-cooldown", func(o *options) { o.brCooldown = -1 }, "-breaker-cooldown must be >= 0"},
		{"malformed inject plan", func(o *options) { o.inject = "panic=2.5" }, "-inject"},
		{"unknown inject kind", func(o *options) { o.inject = "frobnicate=0.5" }, "-inject"},
		{"cluster pair passes", func(o *options) {
			o.peers = "http://a:8080, http://b:8080"
			o.self = "http://a:8080"
		}, ""},
		{"peers without self", func(o *options) { o.peers = "http://a:8080,http://b:8080" }, "-peers needs -self"},
		{"self not in peers", func(o *options) {
			o.peers = "http://a:8080,http://b:8080"
			o.self = "http://c:8080"
		}, "-self"},
		{"self without peers", func(o *options) { o.self = "http://a:8080" }, "-self without -peers"},
		{"peer not a base URL", func(o *options) {
			o.peers = "http://a:8080,b:8080"
			o.self = "http://a:8080"
		}, "-peers"},
		{"negative vnodes", func(o *options) { o.vnodes = -1 }, "-vnodes must be >= 0"},
		{"negative result-max-age", func(o *options) { o.resultMaxAge = -time.Second }, "-result-max-age must be >= 0"},
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
		{"replicated cluster passes", func(o *options) {
			o.peers = "http://a:8080,http://b:8080,http://c:8080"
			o.self = "http://a:8080"
			o.replicas = 2
		}, ""},
		{"negative replicas", func(o *options) { o.replicas = -1 }, "-replicas must be >= 0"},
		{"replicas without peers", func(o *options) { o.replicas = 2 }, "-replicas without -peers"},
		{"replicas exceed cluster", func(o *options) {
			o.peers = "http://a:8080,http://b:8080"
			o.self = "http://a:8080"
			o.replicas = 3
		}, "-replicas 3 exceeds the 2-member cluster"},
		{"negative probe-interval", func(o *options) { o.probeInterval = -time.Second }, "-probe-interval must be >= 0"},
		{"negative repair-interval", func(o *options) { o.repairInterval = -time.Second }, "-repair-interval must be >= 0"},
		{"negative peer-timeout", func(o *options) { o.peerTimeout = -time.Second }, "-peer-timeout must be >= 0"},
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
