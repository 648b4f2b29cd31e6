package runner

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"catch/internal/core"
	"catch/internal/fault"
	"catch/internal/telemetry"
)

// TestShedWhenSaturated: with ShedAfter set, the wait queue is bounded
// — overflow requests get an immediate 503 with Retry-After instead of
// piling onto the limiter.
func TestShedWhenSaturated(t *testing.T) {
	reg := telemetry.NewRegistry()
	e := New(Options{Workers: 1, Cache: NewCache(""), Metrics: reg})
	block := make(chan struct{})
	started := make(chan struct{}, 4)
	e.simulate = func(j *Job) ([]core.Result, error) {
		started <- struct{}{}
		<-block
		return []core.Result{{Workload: j.Workloads[0]}}, nil
	}
	s := &Server{Engine: e, Resolve: testResolve, MaxInflight: 1, ShedAfter: 1, Metrics: reg}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var wg sync.WaitGroup
	codes := make(chan int, 2)
	post := func(name string) {
		defer wg.Done()
		resp, _ := postJSON(t, ts.URL+"/v1/run", RunRequest{
			Config: "catch", Workload: name, Insts: 1000, Warmup: 100,
		})
		codes <- resp.StatusCode
	}
	wg.Add(1)
	go post("hmmer")
	<-started // A holds the only slot
	wg.Add(1)
	go post("mcf")
	for i := 0; s.waiting.Load() != 1; i++ { // B is queued
		if i > 500 {
			t.Fatal("second request never queued")
		}
		time.Sleep(time.Millisecond)
	}

	// C overflows the queue: shed synchronously.
	resp, raw := postJSON(t, ts.URL+"/v1/run", RunRequest{
		Config: "catch", Workload: "tpcc", Insts: 1000, Warmup: 100,
	})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("overflow status = %d: %s", resp.StatusCode, raw)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("shed response missing Retry-After")
	}

	close(block)
	wg.Wait()
	close(codes)
	for code := range codes {
		if code != http.StatusOK {
			t.Fatalf("queued request finished with %d", code)
		}
	}
	if _, raw := getURL(t, ts.URL+"/metrics"); !strings.Contains(string(raw), "catch_http_shed_total 1") {
		t.Fatalf("shed not counted:\n%s", raw)
	}
}

// TestDrainEndpoint: POST /v1/drain flips the server into drain mode —
// new work is shed, health and metrics report it.
func TestDrainEndpoint(t *testing.T) {
	reg := telemetry.NewRegistry()
	e := New(Options{Workers: 1, Cache: NewCache(""), Metrics: reg})
	s := &Server{Engine: e, Resolve: testResolve, Metrics: reg}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, raw := postJSON(t, ts.URL+"/v1/drain", struct{}{})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("drain = %d: %s", resp.StatusCode, raw)
	}
	var body struct {
		Draining bool `json:"draining"`
		Inflight int  `json:"inflight"`
	}
	if err := json.Unmarshal(raw, &body); err != nil {
		t.Fatal(err)
	}
	if !body.Draining || body.Inflight != 0 {
		t.Fatalf("drain body = %+v", body)
	}

	resp, _ = postJSON(t, ts.URL+"/v1/run", RunRequest{Config: "catch", Workload: "mcf"})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain run = %d, want 503", resp.StatusCode)
	}
	if _, raw := getURL(t, ts.URL+"/healthz"); !strings.Contains(string(raw), `"draining": true`) {
		t.Fatalf("healthz does not report draining:\n%s", raw)
	}
	if _, raw := getURL(t, ts.URL+"/metrics"); !strings.Contains(string(raw), "catch_http_draining 1") {
		t.Fatalf("metrics do not report draining:\n%s", raw)
	}
}

// TestRequestTimeoutMapsCanceledRunTo504: a server-side deadline cuts
// the job short and the response is 504 with Status canceled, so
// clients can tell "retry this" from "this is broken".
func TestRequestTimeoutMapsCanceledRunTo504(t *testing.T) {
	e := New(Options{Workers: 1, Cache: NewCache("")})
	e.simulate = func(j *Job) ([]core.Result, error) {
		time.Sleep(300 * time.Millisecond)
		return []core.Result{{Workload: j.Workloads[0]}}, nil
	}
	s := &Server{Engine: e, Resolve: testResolve, RequestTimeout: 30 * time.Millisecond}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, raw := postJSON(t, ts.URL+"/v1/run", RunRequest{
		Config: "catch", Workload: "mcf", Insts: 1000, Warmup: 100,
	})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d: %s", resp.StatusCode, raw)
	}
	var jr JobResult
	if err := json.Unmarshal(raw, &jr); err != nil {
		t.Fatal(err)
	}
	if jr.Status != StatusCanceled {
		t.Fatalf("status = %q, want canceled: %s", jr.Status, raw)
	}
}

// TestSweepRePOSTServedFromCache: a sweep re-POSTed to a restarted
// server over the same cache directory is served entirely from the
// cache, with output byte-identical to the first response.
func TestSweepRePOSTServedFromCache(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	req := SweepRequest{
		Configs: []string{"baseline-excl"}, Workloads: []string{"hmmer", "mcf"},
		Insts: 5_000, Warmup: 1_000,
	}
	type sweepBody struct {
		Jobs     []JobResult `json:"jobs"`
		Canceled int         `json:"canceled"`
	}
	// sweep starts a server over dir, POSTs req once and stops it.
	sweep := func() (*Engine, sweepBody) {
		e := New(Options{Workers: 2, Cache: NewCache(dir)})
		ts := httptest.NewServer((&Server{Engine: e, Resolve: testResolve}).Handler())
		defer ts.Close()
		resp, raw := postJSON(t, ts.URL+"/v1/sweep", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("sweep = %d: %s", resp.StatusCode, raw)
		}
		var body sweepBody
		if err := json.Unmarshal(raw, &body); err != nil {
			t.Fatal(err)
		}
		if body.Canceled != 0 || len(body.Jobs) != 2 {
			t.Fatalf("sweep body: canceled=%d jobs=%d", body.Canceled, len(body.Jobs))
		}
		return e, body
	}

	e1, first := sweep()
	if e1.Executed() != 2 {
		t.Fatalf("first sweep executed %d, want 2", e1.Executed())
	}
	e2, second := sweep()
	if e2.Executed() != 0 {
		t.Fatalf("re-POST after restart executed %d, want 0", e2.Executed())
	}
	for i := range second.Jobs {
		if !second.Jobs[i].Cached || second.Jobs[i].Status != StatusOK {
			t.Fatalf("sweep 2 job %d: %+v", i, second.Jobs[i])
		}
	}
	if string(flatBytes(t, first.Jobs)) != string(flatBytes(t, second.Jobs)) {
		t.Fatal("re-POSTed sweep diverged from the first response")
	}
}

// TestServerMemoryOnlyModeUnderDiskFailure is the acceptance check:
// with every disk read and write failing, the breaker trips open and
// the server keeps serving /v1/run correctly in memory-only mode, with
// the breaker state visible in /metrics.
func TestServerMemoryOnlyModeUnderDiskFailure(t *testing.T) {
	reg := telemetry.NewRegistry()
	inj := fault.NewInjector(fault.Plan{Seed: 3, Rules: map[fault.Kind]fault.Rule{
		fault.DiskRead:  {Prob: 1, Times: 1 << 20}, // the disk never heals
		fault.DiskWrite: {Prob: 1, Times: 1 << 20},
	}})
	cache := NewCacheOpts(CacheOptions{
		Dir:     t.TempDir(),
		FS:      fault.InjectFS{FS: fault.OS{}, Inj: inj},
		Breaker: fault.NewBreaker(2, 1<<20),
	})
	// The injector doubles as Options.Fault so its per-kind counters are
	// exported (its job-level rules are all zero — disk kinds only).
	e := New(Options{Workers: 2, Cache: cache, Metrics: reg, Fault: inj})
	s := &Server{Engine: e, Resolve: testResolve, Metrics: reg}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, name := range []string{"hmmer", "mcf", "tpcc"} {
		resp, raw := postJSON(t, ts.URL+"/v1/run", RunRequest{
			Config: "baseline-excl", Workload: name, Insts: 5_000, Warmup: 1_000,
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s under disk failure = %d: %s", name, resp.StatusCode, raw)
		}
		var jr JobResult
		if err := json.Unmarshal(raw, &jr); err != nil {
			t.Fatal(err)
		}
		if len(jr.Results) != 1 || jr.Results[0].IPC <= 0 {
			t.Fatalf("%s: bad result %s", name, raw)
		}
	}
	if cache.Breaker().State() != fault.StateOpen {
		t.Fatalf("breaker = %v, want open", cache.Breaker().State())
	}
	// Memory hits still work: the same job again is served cached.
	resp, raw := postJSON(t, ts.URL+"/v1/run", RunRequest{
		Config: "baseline-excl", Workload: "hmmer", Insts: 5_000, Warmup: 1_000,
	})
	var jr JobResult
	if resp.StatusCode != http.StatusOK || json.Unmarshal(raw, &jr) != nil || !jr.Cached {
		t.Fatalf("cached rerun: %d cached=%v", resp.StatusCode, jr.Cached)
	}

	_, raw = getURL(t, ts.URL+"/metrics")
	text := string(raw)
	for _, want := range []string{
		"catch_cache_breaker_state 2",
		"catch_cache_breaker_trips_total 1",
		`catch_cache_requests_total{kind="disk_err"}`,
		`catch_fault_injected_total{kind="disk-read"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q\n%s", want, text)
		}
	}
}
