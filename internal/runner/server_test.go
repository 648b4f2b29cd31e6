package runner

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"catch/internal/config"
	"catch/internal/core"
	"catch/internal/telemetry"
	"catch/internal/workloads"
)

func testResolve(name string) (config.SystemConfig, bool) {
	switch name {
	case "baseline-excl":
		return config.BaselineExclusive(), true
	case "catch":
		return config.WithCATCH(config.BaselineExclusive(), "catch"), true
	}
	return config.SystemConfig{}, false
}

func newTestServer(e *Engine) *httptest.Server {
	s := &Server{Engine: e, Resolve: testResolve}
	return httptest.NewServer(s.Handler())
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

// padPast returns body followed by spaces up to limit+1 bytes: the same
// JSON value, one byte over the cap.
func padPast(body []byte, limit int) []byte {
	return append(bytes.Clone(body), bytes.Repeat([]byte(" "), max(0, limit+1-len(body)))...)
}

func TestHealthz(t *testing.T) {
	ts := newTestServer(New(Options{Workers: 2, Cache: NewCache("")}))
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		OK      bool `json:"ok"`
		Workers int  `json:"workers"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || !body.OK || body.Workers != 2 {
		t.Fatalf("healthz = %d %+v", resp.StatusCode, body)
	}
}

// TestHealthzClusterLine pins the operator's first grep during an
// incident: when the server is part of a cluster, /healthz carries a
// one-line membership summary; a standalone server omits the field.
func TestHealthzClusterLine(t *testing.T) {
	e := New(Options{Workers: 1, Cache: NewCache("")})
	s := &Server{Engine: e, Resolve: testResolve,
		ClusterInfo: func() string { return "replicas=2 live=2 suspect=0 down=1 unreplicated=3" }}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	get := func(url string) map[string]any {
		resp, err := http.Get(url + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		return body
	}
	if got := get(ts.URL)["cluster"]; got != "replicas=2 live=2 suspect=0 down=1 unreplicated=3" {
		t.Fatalf("healthz cluster line = %v", got)
	}

	solo := newTestServer(New(Options{Workers: 1, Cache: NewCache("")}))
	defer solo.Close()
	if _, present := get(solo.URL)["cluster"]; present {
		t.Fatal("standalone healthz grew a cluster field")
	}
}

func TestRunEndpointEndToEnd(t *testing.T) {
	ts := newTestServer(New(Options{Workers: 2, Cache: NewCache("")}))
	defer ts.Close()
	resp, raw := postJSON(t, ts.URL+"/v1/run", RunRequest{
		Config: "baseline-excl", Workload: "hmmer", Insts: 8_000, Warmup: 3_000,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	var jr JobResult
	if err := json.Unmarshal(raw, &jr); err != nil {
		t.Fatal(err)
	}
	if len(jr.Results) != 1 || jr.Results[0].Workload != "hmmer" || jr.Results[0].IPC <= 0 {
		t.Fatalf("bad result: %s", raw)
	}

	// The result is now addressable by its key.
	resp2, raw2 := getURL(t, ts.URL+"/v1/results/"+jr.Key)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("results/%s = %d: %s", jr.Key, resp2.StatusCode, raw2)
	}
	// And an unknown key is a 404.
	resp3, _ := getURL(t, ts.URL+"/v1/results/deadbeefdeadbeefdeadbeef")
	if resp3.StatusCode != http.StatusNotFound {
		t.Fatalf("bogus key = %d", resp3.StatusCode)
	}
}

func getURL(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	return resp, raw
}

func TestRunEndpointRejectsUnknowns(t *testing.T) {
	ts := newTestServer(New(Options{Workers: 1, Cache: NewCache("")}))
	defer ts.Close()
	for _, req := range []RunRequest{
		{Config: "no-such-config", Workload: "hmmer"},
		{Config: "baseline-excl", Workload: "no-such-workload"},
		{Config: "baseline-excl"},
		{Config: "baseline-excl", Workload: "hmmer", Workloads: []string{"mcf"}},
	} {
		resp, raw := postJSON(t, ts.URL+"/v1/run", req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%+v: status %d (%s)", req, resp.StatusCode, raw)
		}
	}
}

// TestRunEndpointRejectsMoreWorkloadsThanRingStops: a job needs one
// core per workload and one ring stop per core, so /v1/run answers a
// job wider than its config's ring with 400 and a JSON error before
// anything runs; otherwise a small body could ask for thousands of
// cores.
func TestRunEndpointRejectsMoreWorkloadsThanRingStops(t *testing.T) {
	e := New(Options{Workers: 1, Cache: NewCache("")})
	ts := newTestServer(e)
	defer ts.Close()
	names := make([]string, config.BaselineExclusive().RingStops+1)
	for i := range names {
		names[i] = "mcf"
	}
	resp, raw := postJSON(t, ts.URL+"/v1/run", RunRequest{
		Config: "baseline-excl", Workloads: names, Insts: 1, Warmup: -1,
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("%d workloads: status %d (%s), want 400", len(names), resp.StatusCode, raw)
	}
	var eb ErrorBody
	if err := json.Unmarshal(raw, &eb); err != nil || eb.Error == "" {
		t.Fatalf("body %s is not a JSON error (%v)", raw, err)
	}
	if n := e.Executed(); n != 0 {
		t.Errorf("executed %d jobs, want 0", n)
	}
}

// TestRunCoalescesDuplicateConcurrentRequests is the acceptance check:
// N concurrent identical requests cause exactly one underlying
// simulation.
func TestRunCoalescesDuplicateConcurrentRequests(t *testing.T) {
	e := New(Options{Workers: 4, Cache: NewCache("")})
	var sims atomic.Int32
	e.simulate = func(j *Job) ([]core.Result, error) {
		sims.Add(1)
		time.Sleep(100 * time.Millisecond) // hold the flight open so requests overlap
		return []core.Result{{Workload: j.Workloads[0], Config: j.Config.Name, IPC: 1}}, nil
	}
	ts := newTestServer(e)
	defer ts.Close()

	const n = 8
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, raw := postJSON(t, ts.URL+"/v1/run", RunRequest{
				Config: "catch", Workload: "mcf", Insts: 10_000, Warmup: 5_000,
			})
			if resp.StatusCode != http.StatusOK {
				errs[i] = fmt.Errorf("status %d: %s", resp.StatusCode, raw)
				return
			}
			var jr JobResult
			if err := json.Unmarshal(raw, &jr); err != nil {
				errs[i] = err
				return
			}
			if len(jr.Results) != 1 || jr.Results[0].Workload != "mcf" {
				errs[i] = fmt.Errorf("bad body: %s", raw)
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	if got := sims.Load(); got != 1 {
		t.Fatalf("%d simulations for %d identical concurrent requests, want 1", got, n)
	}
	s := e.Cache().Stats()
	if s.Misses != 1 || s.Hits+s.Coalesced != n-1 {
		t.Fatalf("cache stats = %+v", s)
	}
}

func TestSweepEndpoint(t *testing.T) {
	ts := newTestServer(New(Options{Workers: 4, Cache: NewCache("")}))
	defer ts.Close()
	resp, raw := postJSON(t, ts.URL+"/v1/sweep", SweepRequest{
		Configs: []string{"baseline-excl", "catch"}, Workloads: []string{"hmmer", "mcf"},
		Insts: 6_000, Warmup: 2_000,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	var body struct {
		Jobs  []JobResult `json:"jobs"`
		Cache CacheStats  `json:"cache"`
	}
	if err := json.Unmarshal(raw, &body); err != nil {
		t.Fatal(err)
	}
	if len(body.Jobs) != 4 {
		t.Fatalf("got %d jobs", len(body.Jobs))
	}
	for i, jr := range body.Jobs {
		if jr.Err != "" || len(jr.Results) != 1 {
			t.Fatalf("job %d: %+v", i, jr)
		}
	}
	if body.Jobs[0].Job.Config.Name != "baseline-excl" || body.Jobs[0].Results[0].Workload != "hmmer" {
		t.Fatalf("sweep order wrong: %+v", body.Jobs[0].Job)
	}
}

// TestSweepRequestJobs pins the sweep expansion both servers share:
// defaults, grid order, and the rejections that bound a grid by the two
// registries before anything is expanded.
func TestSweepRequestJobs(t *testing.T) {
	all := len(workloads.All())
	tests := []struct {
		name    string
		req     SweepRequest
		wantN   int
		wantErr string
	}{
		{"default budget", SweepRequest{Configs: []string{"catch"}, Workloads: []string{"mcf"}}, 1, ""},
		{"empty workloads means all", SweepRequest{Configs: []string{"baseline-excl", "catch"}}, 2 * all, ""},
		{"no configs", SweepRequest{Workloads: []string{"mcf"}}, 0, "sweep needs at least one config"},
		{"unknown config", SweepRequest{Configs: []string{"nosuch"}}, 0, `unknown config "nosuch"`},
		{"repeated config", SweepRequest{Configs: []string{"catch", "catch"}, Workloads: []string{"mcf"}},
			0, `config "catch" appears more than once`},
		{"repeated workload", SweepRequest{Configs: []string{"catch"}, Workloads: []string{"mcf", "hmmer", "mcf"}},
			0, `workload "mcf" appears more than once`},
		{"unknown workload", SweepRequest{Configs: []string{"catch"}, Workloads: []string{"mcf", "nosuch"}},
			0, `unknown workload(s): "nosuch"`},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			jobs, err := tt.req.Jobs(testResolve)
			if tt.wantErr != "" {
				if err == nil || err.Error() != tt.wantErr {
					t.Fatalf("err = %v, want %q", err, tt.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if len(jobs) != tt.wantN {
				t.Fatalf("%d jobs, want %d", len(jobs), tt.wantN)
			}
			for i := range jobs {
				if jobs[i].Insts != 300_000 || jobs[i].Warmup != 150_000 {
					t.Fatalf("job %d budget = %d/%d, want the 300000/150000 defaults",
						i, jobs[i].Insts, jobs[i].Warmup)
				}
			}
		})
	}

	// Explicit budgets pass through; a negative warmup means none.
	jobs, err := (&SweepRequest{Configs: []string{"baseline-excl", "catch"}, Workloads: []string{"mcf", "hmmer"},
		Insts: 5_000, Warmup: -1}).Jobs(testResolve)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, j := range jobs {
		if j.Insts != 5_000 || j.Warmup != 0 {
			t.Fatalf("budget = %d/%d, want 5000/0", j.Insts, j.Warmup)
		}
		got = append(got, j.Config.Name+"/"+j.Workloads[0])
	}
	want := []string{"baseline-excl/mcf", "baseline-excl/hmmer", "catch/mcf", "catch/hmmer"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("grid order = %v, want %v (configs outer)", got, want)
	}
}

// TestSweepRejectsRepeatedAndUnknownNames: a sweep body that repeats a
// config or names an unknown workload is a 400 with a JSON error, and
// nothing runs.
func TestSweepRejectsRepeatedAndUnknownNames(t *testing.T) {
	e := New(Options{Workers: 1, Cache: NewCache("")})
	ts := newTestServer(e)
	defer ts.Close()
	for _, body := range []string{
		`{"configs":["catch","catch"],"workloads":["mcf"]}`,
		`{"configs":["catch"],"workloads":["nosuch"]}`,
	} {
		resp, raw := postJSON(t, ts.URL+"/v1/sweep", json.RawMessage(body))
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400 (%s)", body, resp.StatusCode, raw)
		}
		var eb ErrorBody
		if err := json.Unmarshal(raw, &eb); err != nil || eb.Error == "" {
			t.Fatalf("%s: want a JSON error body, got %s", body, raw)
		}
	}
	if n := e.Executed(); n != 0 {
		t.Fatalf("rejected sweeps executed %d simulations", n)
	}
}

// TestRequestBodyCap: a /v1/run or /v1/sweep body one byte over
// MaxRequestBody is a 400 with a JSON error and runs nothing, though it
// is a valid request padded with spaces; the same request padded to
// exactly the cap is served.
func TestRequestBodyCap(t *testing.T) {
	e := New(Options{Workers: 1, Cache: NewCache("")})
	e.simulate = func(j *Job) ([]core.Result, error) {
		return []core.Result{{Workload: j.Workloads[0], IPC: 1}}, nil
	}
	ts := newTestServer(e)
	defer ts.Close()
	post := func(path string, body []byte) (int, []byte) {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, raw
	}
	for _, c := range []struct{ path, body string }{
		{"/v1/run", `{"config":"catch","workload":"mcf","insts":5000,"warmup":1000}`},
		{"/v1/sweep", `{"configs":["catch"],"workloads":["hmmer"],"insts":5000,"warmup":1000}`},
	} {
		executed := e.Executed()
		over := padPast([]byte(c.body), MaxRequestBody)
		status, raw := post(c.path, over)
		var eb ErrorBody
		if status != http.StatusBadRequest || json.Unmarshal(raw, &eb) != nil || eb.Error == "" {
			t.Fatalf("%s, %d bytes: status %d (%.200s), want 400 with a JSON error", c.path, len(over), status, raw)
		}
		if n := e.Executed(); n != executed {
			t.Fatalf("%s: an over-cap body executed %d jobs", c.path, n-executed)
		}
		if status, raw := post(c.path, over[:MaxRequestBody]); status != http.StatusOK {
			t.Fatalf("%s, %d bytes: status %d (%.200s), want 200", c.path, MaxRequestBody, status, raw)
		}
	}
}

func TestConcurrencyLimiterBounds(t *testing.T) {
	e := New(Options{Workers: 1, Cache: NewCache("")})
	var inflight, peak atomic.Int32
	e.simulate = func(j *Job) ([]core.Result, error) {
		cur := inflight.Add(1)
		defer inflight.Add(-1)
		for {
			p := peak.Load()
			if cur <= p || peak.CompareAndSwap(p, cur) {
				break
			}
		}
		time.Sleep(20 * time.Millisecond)
		return []core.Result{{Workload: j.Workloads[0]}}, nil
	}
	s := &Server{Engine: e, Resolve: testResolve, MaxInflight: 2}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	workloadNames := []string{"hmmer", "mcf", "tpcc", "povray", "lbm", "sjeng"}
	var wg sync.WaitGroup
	for _, name := range workloadNames {
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			postJSON(t, ts.URL+"/v1/run", RunRequest{Config: "catch", Workload: name, Insts: 1000, Warmup: 100})
		}(name)
	}
	wg.Wait()
	if p := peak.Load(); p > 2 {
		t.Fatalf("inflight peaked at %d with limiter 2", p)
	}
}

// TestServerShutsDownCleanly drains an idle server the way catchd's
// SIGINT handler does.
func TestServerShutsDownCleanly(t *testing.T) {
	e := New(Options{Workers: 1, Cache: NewCache("")})
	s := &Server{Engine: e, Resolve: testResolve}
	hs := &http.Server{Handler: s.Handler()}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	go hs.Serve(ln)
	// Confirm it serves, then shut down.
	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if _, err := http.Get("http://" + addr + "/healthz"); err == nil {
		t.Fatal("server still serving after shutdown")
	}
}

// TestMetricsEndpoint drives a run through a metered server and checks
// that the engine, cache, and server series all appear in the
// Prometheus exposition.
func TestMetricsEndpoint(t *testing.T) {
	reg := telemetry.NewRegistry()
	e := New(Options{Workers: 2, Cache: NewCache(""), Metrics: reg})
	s := &Server{Engine: e, Resolve: testResolve, Metrics: reg, Version: "test"}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req := RunRequest{Config: "baseline-excl", Workload: "hmmer", Insts: 5_000, Warmup: 1_000}
	if resp, raw := postJSON(t, ts.URL+"/v1/run", req); resp.StatusCode != http.StatusOK {
		t.Fatalf("run: %d %s", resp.StatusCode, raw)
	}
	// Same job again: served from the cache, still a completed job.
	if resp, raw := postJSON(t, ts.URL+"/v1/run", req); resp.StatusCode != http.StatusOK {
		t.Fatalf("run 2: %d %s", resp.StatusCode, raw)
	}

	resp, raw := getURL(t, ts.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %d %s", resp.StatusCode, raw)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content-type %q", ct)
	}
	text := string(raw)
	for _, want := range []string{
		"catch_engine_jobs_completed_total 2",
		"catch_engine_executions_total 1",
		"catch_engine_jobs_failed_total 0",
		"catch_engine_job_seconds_count 2",
		`catch_cache_requests_total{kind="hit"} 1`,
		`catch_cache_requests_total{kind="miss"} 1`,
		"# TYPE catch_engine_job_seconds histogram",
		"catch_uptime_seconds",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q\n%s", want, text)
		}
	}
}

// TestMetricsEndpointAbsentWithoutRegistry keeps /metrics opt-in.
func TestMetricsEndpointAbsentWithoutRegistry(t *testing.T) {
	ts := newTestServer(New(Options{Workers: 1, Cache: NewCache("")}))
	defer ts.Close()
	resp, _ := getURL(t, ts.URL+"/metrics")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unmetered /metrics = %d, want 404", resp.StatusCode)
	}
}

func TestHealthzReportsBuildInfo(t *testing.T) {
	e := New(Options{Workers: 1, Cache: NewCache("")})
	s := &Server{Engine: e, Resolve: testResolve, Version: "v1.2.3"}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, raw := getURL(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}
	var body struct {
		Version       string  `json:"version"`
		Go            string  `json:"go"`
		UptimeSeconds float64 `json:"uptimeSeconds"`
	}
	if err := json.Unmarshal(raw, &body); err != nil {
		t.Fatal(err)
	}
	if body.Version != "v1.2.3" || !strings.HasPrefix(body.Go, "go") || body.UptimeSeconds < 0 {
		t.Fatalf("healthz body = %+v", body)
	}
}

// TestPprofGatedByFlag: profiles are only mounted when asked for.
func TestPprofGatedByFlag(t *testing.T) {
	e := New(Options{Workers: 1, Cache: NewCache("")})
	off := httptest.NewServer((&Server{Engine: e, Resolve: testResolve}).Handler())
	defer off.Close()
	if resp, _ := getURL(t, off.URL+"/debug/pprof/"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pprof off = %d, want 404", resp.StatusCode)
	}
	e2 := New(Options{Workers: 1, Cache: NewCache("")})
	on := httptest.NewServer((&Server{Engine: e2, Resolve: testResolve, EnablePprof: true}).Handler())
	defer on.Close()
	if resp, raw := getURL(t, on.URL+"/debug/pprof/"); resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof on = %d: %s", resp.StatusCode, raw)
	}
}

// TestServerSampledCounters: a sampling engine surfaces its planner
// counters in /healthz and as /metrics series, no warm-snapshot
// counters remain, and a sweep through the HTTP layer actually
// resolves by sampling.
func TestServerSampledCounters(t *testing.T) {
	reg := telemetry.NewRegistry()
	e := New(Options{
		Workers: 2, Cache: NewCache(""), Metrics: reg,
		Sample: true, SampleInterval: 500, SampleK: 2,
	})
	s := &Server{Engine: e, Resolve: testResolve, Metrics: reg}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, raw := postJSON(t, ts.URL+"/v1/sweep", SweepRequest{
		Configs:   []string{"baseline-excl", "catch"},
		Workloads: []string{"mcf"},
		Insts:     2_000, Warmup: 1_000,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep: %d: %s", resp.StatusCode, raw)
	}
	if e.Sampled() != 2 || e.SampleFallbacks() != 0 {
		t.Fatalf("Sampled=%d SampleFallbacks=%d, want 2 and 0", e.Sampled(), e.SampleFallbacks())
	}

	resp2, raw2 := getURL(t, ts.URL+"/healthz")
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp2.StatusCode)
	}
	var body struct {
		Sampled         uint64 `json:"sampled"`
		SampleFallbacks uint64 `json:"sampleFallbacks"`
		SampleProfiles  struct {
			Profiled uint64 `json:"profiled"`
		} `json:"sampleProfiles"`
	}
	if err := json.Unmarshal(raw2, &body); err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw2, &keys); err != nil {
		t.Fatal(err)
	}
	if _, ok := keys["sampleSnapshots"]; ok {
		t.Errorf("healthz still has sampleSnapshots: %s", raw2)
	}
	if body.Sampled != 2 || body.SampleFallbacks != 0 {
		t.Errorf("healthz sampled=%d fallbacks=%d, want 2 and 0: %s", body.Sampled, body.SampleFallbacks, raw2)
	}
	if body.SampleProfiles.Profiled != 1 {
		t.Errorf("healthz sampleProfiles.profiled = %d, want 1 (one workload): %s", body.SampleProfiles.Profiled, raw2)
	}

	resp3, raw3 := getURL(t, ts.URL+"/metrics")
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %d", resp3.StatusCode)
	}
	for _, series := range []string{
		`catch_engine_jobs_sampled_total 2`,
		`catch_engine_sample_fallbacks_total 0`,
		`catch_sample_profiles_total{kind="built"} 1`,
	} {
		if !strings.Contains(string(raw3), series) {
			t.Errorf("metrics lack %q", series)
		}
	}
	if strings.Contains(string(raw3), "catch_sample_snapshots_total") {
		t.Error("metrics still carry catch_sample_snapshots_total")
	}
}
