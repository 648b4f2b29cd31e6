package runner

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"runtime"
	"sync/atomic"
	"time"

	"catch/internal/config"
	"catch/internal/core"
	"catch/internal/fault"
	"catch/internal/sample"
	"catch/internal/telemetry"
	"catch/internal/workloads"
)

// ConfigResolver maps a configuration name to a SystemConfig. The
// server takes it as a dependency so the runner package does not need
// to import the experiment registry.
type ConfigResolver func(name string) (config.SystemConfig, bool)

// Server exposes the engine over HTTP:
//
//	POST /v1/run          run one job
//	POST /v1/sweep        run a (configs × workloads) grid
//	POST /v1/drain        stop feeding new work, finish what's running
//	GET  /v1/results/{key} fetch a cached result by content address
//	GET  /healthz         liveness, build info, cache/engine counters
//	GET  /metrics         Prometheus text exposition (when Metrics set)
//	GET  /debug/pprof/*   runtime profiles (when EnablePprof set)
type Server struct {
	Engine  *Engine
	Resolve ConfigResolver
	// MaxInflight bounds concurrently served run/sweep requests
	// (beyond it, requests queue until a slot frees or the client
	// gives up); <=0 means 2× the engine's worker count.
	MaxInflight int
	// ShedAfter bounds the queue behind the limiter: once that many
	// requests are already waiting for a slot, new ones are shed
	// immediately with 503 + Retry-After instead of piling up. <=0
	// keeps the historical unbounded blocking queue.
	ShedAfter int
	// RequestTimeout bounds one run/sweep request end to end via its
	// context; jobs cut short report Status Canceled and a fully
	// canceled run maps to 504. <=0 means no server-side deadline.
	RequestTimeout time.Duration
	// ResultMaxAge is the Cache-Control max-age stamped on GET
	// /v1/results/{key} responses; <=0 means DefaultResultMaxAge
	// (results are content-addressed, hence immutable).
	ResultMaxAge time.Duration
	// Metrics, when non-nil, is served at GET /metrics. Handler also
	// registers the server's own series there (cache traffic, uptime,
	// request limiter occupancy, breaker and fault-injection state).
	Metrics *telemetry.Registry
	// Version is reported by /healthz and /metrics (build identifier;
	// empty means "dev").
	Version string
	// EnablePprof mounts net/http/pprof under /debug/pprof/.
	EnablePprof bool
	// ClusterInfo, when non-nil, contributes a one-line cluster summary
	// to /healthz (member disposition, under-replicated backlog). The
	// cluster layer sets it; single-node servers leave it nil and the
	// field stays absent from the body.
	ClusterInfo func() string

	sem      chan struct{}
	start    time.Time
	waiting  atomic.Int64
	draining atomic.Bool
	mShed    *telemetry.Counter
}

// RunRequest is the body of POST /v1/run. Workload names a
// single-thread run; Workloads (one per core) a multi-programmed one.
type RunRequest struct {
	Config    string   `json:"config"`
	Workload  string   `json:"workload,omitempty"`
	Workloads []string `json:"workloads,omitempty"`
	Insts     int64    `json:"insts,omitempty"`
	Warmup    int64    `json:"warmup,omitempty"`
}

// SweepRequest is the body of POST /v1/sweep. Empty Workloads means
// the full 70-workload study list. Re-POSTing a sweep over the same
// cache serves its finished jobs from the cache, so an interrupted
// sweep continues by being sent again.
type SweepRequest struct {
	Configs   []string `json:"configs"`
	Workloads []string `json:"workloads,omitempty"`
	Insts     int64    `json:"insts,omitempty"`
	Warmup    int64    `json:"warmup,omitempty"`
}

// Jobs validates the request and expands it into its (configs ×
// workloads) grid, configs outer. Zero Insts and Warmup take the
// defaults of POST /v1/run. A repeated config, a repeated workload and
// an unknown name are rejected before anything is expanded, so a grid
// never exceeds the names resolve knows times len(workloads.All()).
func (req *SweepRequest) Jobs(resolve ConfigResolver) ([]Job, error) {
	if len(req.Configs) == 0 {
		return nil, errors.New("sweep needs at least one config")
	}
	grid := Grid{Insts: defInsts(req.Insts), Warmup: defWarmup(req.Warmup)}
	seen := make(map[string]bool)
	for _, name := range req.Configs {
		if seen[name] {
			return nil, fmt.Errorf("config %q appears more than once", name)
		}
		seen[name] = true
		cfg, ok := resolve(name)
		if !ok {
			return nil, fmt.Errorf("unknown config %q", name)
		}
		grid.Configs = append(grid.Configs, cfg)
	}
	clear(seen)
	for _, name := range req.Workloads {
		if seen[name] {
			return nil, fmt.Errorf("workload %q appears more than once", name)
		}
		seen[name] = true
	}
	if _, err := resolveWorkloads(req.Workloads); err != nil {
		return nil, err
	}
	grid.Workloads = req.Workloads
	if len(grid.Workloads) == 0 {
		for _, wl := range workloads.All() {
			grid.Workloads = append(grid.Workloads, wl.WName)
		}
	}
	return grid.Jobs(), nil
}

// ErrorBody is the JSON body of every catchd error response.
type ErrorBody struct {
	Error string `json:"error"`
}

// ResultsDoc is one job's results under its key: the GET
// /v1/results/{key} response body, and the body of a cluster replica
// fill.
type ResultsDoc struct {
	Key     string        `json:"key"`
	Results []core.Result `json:"results"`
}

// MaxRequestBody caps a POST /v1/run or /v1/sweep body. The largest
// legitimate one is a sweep that names every registered config and
// every workload once: about 900 bytes compact and under 2 KB indented
// (TestLargestBodiesFitCaps in internal/cluster, which sees the config
// registry). A run names one config and at most one workload per ring
// stop, far less.
const MaxRequestBody = 16 << 10

// DecodeBody reads a JSON request body into v. A body over limit bytes
// is refused before any of it is decoded, so a handler that checks the
// error runs nothing for it.
func DecodeBody(w http.ResponseWriter, body io.ReadCloser, limit int64, v any) error {
	raw, err := io.ReadAll(http.MaxBytesReader(w, body, limit))
	if err == nil {
		err = json.Unmarshal(raw, v)
	}
	if err != nil {
		return fmt.Errorf("bad request body: %v", err)
	}
	return nil
}

// Handler builds the route table. Call it once per Server: it also
// registers the server's metric series, and re-registration panics.
func (s *Server) Handler() http.Handler {
	n := s.MaxInflight
	if n <= 0 {
		n = 2 * s.Engine.Workers()
	}
	s.sem = make(chan struct{}, n)
	s.start = time.Now()
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/run", s.limited(s.handleRun))
	mux.HandleFunc("POST /v1/sweep", s.limited(s.handleSweep))
	mux.HandleFunc("POST /v1/drain", s.handleDrain)
	mux.HandleFunc("GET /v1/results/{key}", s.handleResult)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	if s.Metrics != nil {
		s.registerServerMetrics(s.Metrics)
		mux.Handle("GET /metrics", telemetry.Handler(s.Metrics))
	}
	if s.EnablePprof {
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return routes{mux, s}
}

// routes is the handler Handler returns. Its Admit puts another
// layer's route, the cluster's sharded sweep, behind the admission of
// the run and sweep routes (see limited).
type routes struct {
	*http.ServeMux
	s *Server
}

func (r routes) Admit(h http.HandlerFunc) http.HandlerFunc { return r.s.limited(h) }

// registerServerMetrics surfaces counters owned by the cache and the
// request limiter as read-at-exposition functions, so the hot paths
// that own them stay untouched.
func (s *Server) registerServerMetrics(r *telemetry.Registry) {
	r.GaugeFunc("catch_uptime_seconds", "Seconds since the server started serving.",
		func() float64 { return time.Since(s.start).Seconds() })
	r.GaugeFunc("catch_http_inflight", "Run/sweep requests currently holding a limiter slot.",
		func() float64 { return float64(len(s.sem)) })
	r.GaugeFunc("catch_http_draining", "1 while the server is draining (shedding new run/sweep requests).",
		func() float64 {
			if s.draining.Load() {
				return 1
			}
			return 0
		})
	s.mShed = r.Counter("catch_http_shed_total",
		"Run/sweep requests shed with 503 (limiter saturated or draining).")
	if c := s.Engine.Cache(); c != nil {
		stat := func(f func(CacheStats) uint64) func() float64 {
			return func() float64 { return float64(f(c.Stats())) }
		}
		r.CounterFunc("catch_cache_requests_total{kind=\"hit\"}",
			"Result-cache traffic by kind.",
			stat(func(st CacheStats) uint64 { return st.Hits }))
		r.CounterFunc("catch_cache_requests_total{kind=\"miss\"}",
			"Result-cache traffic by kind.",
			stat(func(st CacheStats) uint64 { return st.Misses }))
		r.CounterFunc("catch_cache_requests_total{kind=\"coalesced\"}",
			"Result-cache traffic by kind.",
			stat(func(st CacheStats) uint64 { return st.Coalesced }))
		r.CounterFunc("catch_cache_requests_total{kind=\"disk_hit\"}",
			"Result-cache traffic by kind.",
			stat(func(st CacheStats) uint64 { return st.DiskHits }))
		r.CounterFunc("catch_cache_requests_total{kind=\"bad_disk\"}",
			"Result-cache traffic by kind.",
			stat(func(st CacheStats) uint64 { return st.BadDisk }))
		r.CounterFunc("catch_cache_requests_total{kind=\"disk_err\"}",
			"Result-cache traffic by kind.",
			stat(func(st CacheStats) uint64 { return st.DiskErrs }))
		r.CounterFunc("catch_cache_requests_total{kind=\"quarantined\"}",
			"Result-cache traffic by kind.",
			stat(func(st CacheStats) uint64 { return st.Quarantined }))
		if b := c.Breaker(); b != nil {
			r.GaugeFunc("catch_cache_breaker_state",
				"Disk-cache circuit breaker state: 0 closed, 1 half-open, 2 open (memory-only).",
				func() float64 { return float64(b.State()) })
			r.CounterFunc("catch_cache_breaker_trips_total",
				"Times the disk-cache breaker tripped open.",
				func() float64 { return float64(b.Trips()) })
		}
	}
	if p := s.Engine.Sampler(); p != nil {
		pstat := func(f func(sample.PlannerStats) uint64) func() float64 {
			return func() float64 { return float64(f(p.Stats())) }
		}
		r.CounterFunc("catch_sample_profiles_total{kind=\"built\"}",
			"Sampling-profile traffic by kind.",
			pstat(func(st sample.PlannerStats) uint64 { return st.Profiled }))
		r.CounterFunc("catch_sample_profiles_total{kind=\"hit\"}",
			"Sampling-profile traffic by kind.",
			pstat(func(st sample.PlannerStats) uint64 { return st.ProfileHits }))
		r.CounterFunc("catch_sample_profiles_total{kind=\"coalesced\"}",
			"Sampling-profile traffic by kind.",
			pstat(func(st sample.PlannerStats) uint64 { return st.ProfileCoalesced }))
	}
	if inj := s.Engine.FaultInjector(); inj != nil {
		for _, k := range fault.Kinds() {
			k := k
			//catchlint:ignore telemetry-discipline one-time registration loop over the static fault kinds, not a hot path
			r.CounterFunc(fmt.Sprintf("catch_fault_injected_total{kind=%q}", k.String()),
				"Injected faults by kind (chaos mode only).",
				func() float64 { return float64(inj.Injected(k)) })
		}
	}
}

// limited applies the concurrency limiter: requests beyond MaxInflight
// wait for a slot (or for the client to hang up). When ShedAfter is
// set, the wait queue itself is bounded and overflow is shed with 503
// + Retry-After; a draining server sheds everything new. An acquired
// request runs under RequestTimeout (when set).
func (s *Server) limited(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.draining.Load() {
			s.shed(w, "server is draining")
			return
		}
		select {
		case s.sem <- struct{}{}: // free slot, no queueing
		default:
			if s.ShedAfter > 0 && s.waiting.Add(1) > int64(s.ShedAfter) {
				s.waiting.Add(-1)
				s.shed(w, "server saturated: too many queued requests")
				return
			}
			acquired := false
			select {
			case s.sem <- struct{}{}:
				acquired = true
			case <-r.Context().Done():
			}
			if s.ShedAfter > 0 {
				s.waiting.Add(-1)
			}
			if !acquired {
				WriteJSON(w, http.StatusServiceUnavailable, ErrorBody{"client gave up waiting for a slot"})
				return
			}
		}
		defer func() { <-s.sem }()
		if s.RequestTimeout > 0 {
			ctx, cancel := context.WithTimeout(r.Context(), s.RequestTimeout)
			defer cancel()
			r = r.WithContext(ctx)
		}
		h(w, r)
	}
}

// shed rejects a request the server will not queue, telling the client
// when to come back.
func (s *Server) shed(w http.ResponseWriter, msg string) {
	s.mShed.Inc()
	w.Header().Set("Retry-After", "1")
	WriteJSON(w, http.StatusServiceUnavailable, ErrorBody{msg})
}

// BeginDrain flips the server into drain mode: new run/sweep requests
// are shed, the engine stops feeding queued jobs (they come back
// Status Canceled; re-sending the request later computes only them),
// and running jobs finish normally. Idempotent.
func (s *Server) BeginDrain() {
	if s.draining.CompareAndSwap(false, true) {
		s.Engine.Drain()
	}
}

// Draining reports whether BeginDrain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// handleDrain begins a drain and waits (bounded) for inflight requests
// to finish before reporting how many remain.
func (s *Server) handleDrain(w http.ResponseWriter, r *http.Request) {
	s.BeginDrain()
	deadline := time.Now().Add(5 * time.Second)
wait:
	for len(s.sem) > 0 && time.Now().Before(deadline) {
		select {
		case <-r.Context().Done():
			break wait
		case <-time.After(10 * time.Millisecond):
		}
	}
	WriteJSON(w, http.StatusOK, map[string]any{
		"draining": true,
		"inflight": len(s.sem),
	})
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	var req RunRequest
	if err := DecodeBody(w, r.Body, MaxRequestBody, &req); err != nil {
		WriteJSON(w, http.StatusBadRequest, ErrorBody{err.Error()})
		return
	}
	job, err := s.jobFrom(&req)
	if err != nil {
		WriteJSON(w, http.StatusBadRequest, ErrorBody{err.Error()})
		return
	}
	rs := s.Engine.Run(r.Context(), []Job{job})
	switch {
	case rs[0].Status == StatusCanceled:
		WriteJSON(w, http.StatusGatewayTimeout, rs[0])
	case rs[0].Err != "":
		WriteJSON(w, http.StatusInternalServerError, rs[0])
	default:
		WriteJSON(w, http.StatusOK, rs[0])
	}
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req SweepRequest
	if err := DecodeBody(w, r.Body, MaxRequestBody, &req); err != nil {
		WriteJSON(w, http.StatusBadRequest, ErrorBody{err.Error()})
		return
	}
	jobs, err := req.Jobs(s.Resolve)
	if err != nil {
		WriteJSON(w, http.StatusBadRequest, ErrorBody{err.Error()})
		return
	}
	start := time.Now()
	out := s.Engine.Run(r.Context(), jobs)
	canceled := 0
	for i := range out {
		if out[i].Status == StatusCanceled {
			canceled++
		}
	}
	WriteJSON(w, http.StatusOK, map[string]any{
		"jobs":      out,
		"canceled":  canceled,
		"elapsedMs": time.Since(start).Milliseconds(),
		"cache":     s.cacheStats(),
	})
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	// Key shape is validated before anything touches the cache: a
	// malformed key is the client's error (400), not a lookup miss and
	// never a server fault.
	if !ValidKey(key) {
		WriteJSON(w, http.StatusBadRequest, ErrorBody{"malformed result key (want 16-64 lowercase hex digits): " + key})
		return
	}
	cache := s.Engine.Cache()
	if cache == nil {
		WriteJSON(w, http.StatusNotFound, ErrorBody{"server runs without a result cache"})
		return
	}
	// Get never returns an empty entry (a quarantine racing this read
	// could briefly expose one), so a hit always has a body and a miss
	// is consistently 404.
	rs, ok := cache.Get(key)
	if !ok {
		WriteJSON(w, http.StatusNotFound, ErrorBody{"no cached result for key " + key})
		return
	}
	ServeResult(w, r, key, ResultsDoc{Key: key, Results: rs}, s.ResultMaxAge)
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	version := s.Version
	if version == "" {
		version = "dev"
	}
	body := map[string]any{
		"ok":            true,
		"version":       version,
		"go":            runtime.Version(),
		"uptimeSeconds": time.Since(s.start).Seconds(),
		"workers":       s.Engine.Workers(),
		"executed":      s.Engine.Executed(),
		"cache":         s.cacheStats(),
		"inflight":      len(s.sem),
		"maxInflight":   cap(s.sem),
		"draining":      s.draining.Load(),
	}
	if c := s.Engine.Cache(); c != nil {
		if b := c.Breaker(); b != nil {
			body["breaker"] = b.State().String()
		}
	}
	if p := s.Engine.Sampler(); p != nil {
		body["sampled"] = s.Engine.Sampled()
		body["sampleFallbacks"] = s.Engine.SampleFallbacks()
		body["sampleProfiles"] = p.Stats()
	}
	if s.ClusterInfo != nil {
		body["cluster"] = s.ClusterInfo()
	}
	WriteJSON(w, http.StatusOK, body)
}

func (s *Server) cacheStats() any {
	if c := s.Engine.Cache(); c != nil {
		return c.Stats()
	}
	return nil
}

// jobFrom validates and converts an API request into a Job.
func (s *Server) jobFrom(req *RunRequest) (Job, error) {
	cfg, ok := s.Resolve(req.Config)
	if !ok {
		return Job{}, fmt.Errorf("unknown config %q", req.Config)
	}
	names := req.Workloads
	if req.Workload != "" {
		if len(names) > 0 {
			return Job{}, fmt.Errorf("set either workload or workloads, not both")
		}
		names = []string{req.Workload}
	}
	job := MPJob(cfg, names, defInsts(req.Insts), defWarmup(req.Warmup))
	if err := job.Validate(); err != nil {
		return Job{}, err
	}
	return job, nil
}

func defInsts(n int64) int64 {
	if n <= 0 {
		return 300_000
	}
	return n
}

func defWarmup(n int64) int64 {
	if n < 0 {
		return 0
	}
	if n == 0 {
		return 150_000
	}
	return n
}

// WriteJSON writes v as a compact JSON response with the given status.
// Every catchd response body goes through it, the cluster's included.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// The status line is already written; an encode failure here means
	// the client went away and there is no channel left to report on.
	_ = json.NewEncoder(w).Encode(v)
}
