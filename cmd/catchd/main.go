// Command catchd serves simulations over HTTP: single jobs, grid
// sweeps and cached results, backed by the parallel execution engine
// and its content-addressed result cache.
//
// Usage:
//
//	catchd -addr :8080 -parallel 8 -cache /tmp/catch-cache
//
// Endpoints:
//
//	POST /v1/run           {"config":"catch","workload":"mcf","insts":300000,"warmup":150000}
//	POST /v1/sweep         {"configs":["baseline-excl","catch"],"workloads":["mcf","hmmer"]}
//	POST /v1/drain         stop accepting work, finish in-flight jobs
//	GET  /v1/results/{key} cached result by content address
//	GET  /healthz          liveness, build info and counters
//	GET  /metrics          Prometheus text exposition
//	GET  /debug/pprof/*    runtime profiles (with -pprof)
//
// Duplicate concurrent requests for the same job are coalesced onto
// one simulation; identical jobs after that are served from the cache.
// A disk-cache circuit breaker degrades to memory-only caching when the
// cache directory misbehaves, and -shed-after bounds the request wait
// queue (overflow gets 503 + Retry-After). An interrupted sweep
// continues when the same sweep is POSTed again: with -cache, every
// job it finished is served from the cache and only the rest run.
// SIGINT/SIGTERM drain in-flight requests and exit cleanly. -inject
// enables the deterministic chaos layer (never in production).
//
// -sample resolves eligible jobs by representative-interval sampling
// (profile → cluster → warm in place and measure representatives →
// extrapolate). Sampled results are approximate, carry error estimates,
// and cache under different keys than exact results; sampling failures
// fall back to full simulation and are counted in /healthz and
// /metrics.
//
// -peers turns a set of catchd processes into a peer cluster:
//
//	catchd -addr :8080 -peers http://a:8080,http://b:8080 -self http://a:8080
//
// Sweep jobs shard across the members by consistent hashing on their
// content-addressed keys, each shard runs on its owner's engine, GET
// /v1/results resolves through a tiered read path (local memory →
// local disk → the key's replica peers), and GET /v1/cluster/status
// reports ring membership, tier traffic, per-peer breaker state and
// the health/replication view. A dead peer's shards reroute along the
// ring; because jobs are pure functions of their key, an N-node sweep
// is byte-identical to the single-node run.
//
// -replicas R makes the cluster self-healing: each completed result
// is pushed to its R ring owners, a seeded prober (-probe-interval)
// tracks peers through live/suspect/down, and one manifest-diff
// reconcile pushes every cached copy a peer should hold and lacks —
// to a peer the moment it returns to live (empty cache or not), and
// to every live peer on each anti-entropy pass (-repair-interval).
// Killing any single node then loses no results and recomputes
// nothing; a partitioned minority keeps computing, reports the keys
// owed to unreachable replicas as "unreplicated" in
// /v1/cluster/status, and reconciles on heal. -peer-timeout bounds
// each control-plane peer call (shard dispatch is never
// client-bounded; the probe deadline stays tight).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"net/url"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"catch/internal/cluster"
	"catch/internal/experiments"
	"catch/internal/fault"
	"catch/internal/runner"
	"catch/internal/telemetry"
)

// version identifies the build in /healthz; release builds may
// override it via -ldflags "-X main.version=...".
var version = "dev"

// options collects the parsed command line. validate checks it before
// the engine or listener starts; every validation error names the
// offending flag and makes main exit with status 2.
type options struct {
	addr       string
	parallel   int
	inflight   int
	timeout    time.Duration
	retries    int
	shedAfter  int
	reqTimeout time.Duration
	backoff    time.Duration
	brThresh   int
	brCooldown int
	inject     string
	sample     bool
	sampleIv   int64
	sampleK    int

	// Cluster mode (all optional; empty peers = single node).
	peers          string
	self           string
	vnodes         int
	resultMaxAge   time.Duration
	replicas       int
	probeInterval  time.Duration
	repairInterval time.Duration
	peerTimeout    time.Duration

	peerList []string // resolved by validate
}

// splitPeers parses the comma-separated -peers list, trimming blanks.
func splitPeers(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// validate checks flag values and combinations.
func validate(o *options) error {
	if o.addr == "" {
		return errors.New("-addr must not be empty (e.g. :8080)")
	}
	if o.parallel < 0 {
		return fmt.Errorf("-parallel must be >= 0 (0 = GOMAXPROCS; got %d)", o.parallel)
	}
	if o.inflight < 0 {
		return fmt.Errorf("-max-inflight must be >= 0 (0 = 2x workers; got %d)", o.inflight)
	}
	if o.timeout < 0 {
		return fmt.Errorf("-job-timeout must be >= 0 (0 = none; got %v)", o.timeout)
	}
	if o.retries < 0 {
		return fmt.Errorf("-retries must be >= 0 (got %d)", o.retries)
	}
	if o.shedAfter < 0 {
		return fmt.Errorf("-shed-after must be >= 0 (0 = unbounded queue; got %d)", o.shedAfter)
	}
	if o.reqTimeout < 0 {
		return fmt.Errorf("-request-timeout must be >= 0 (0 = none; got %v)", o.reqTimeout)
	}
	if o.backoff < 0 {
		return fmt.Errorf("-retry-backoff must be >= 0 (0 = immediate retries; got %v)", o.backoff)
	}
	if o.brThresh < 0 {
		return fmt.Errorf("-breaker-threshold must be >= 0 (0 = breaker off; got %d)", o.brThresh)
	}
	if o.brCooldown < 0 {
		return fmt.Errorf("-breaker-cooldown must be >= 0 (got %d)", o.brCooldown)
	}
	if _, err := fault.ParsePlan(o.inject); err != nil {
		return fmt.Errorf("-inject: %v", err)
	}
	if !o.sample && (o.sampleIv != 0 || o.sampleK != 0) {
		return errors.New("-sample-interval/-sample-k only apply with -sample")
	}
	if o.sampleIv < 0 {
		return fmt.Errorf("-sample-interval must be >= 0 (0 derives %d intervals per job; got %d)",
			runner.DefaultSampleIntervals, o.sampleIv)
	}
	if o.sampleK < 0 {
		return fmt.Errorf("-sample-k must be >= 0 (0 defaults to %d; got %d)",
			runner.DefaultSampleK, o.sampleK)
	}
	o.peerList = splitPeers(o.peers)
	if len(o.peerList) > 0 {
		if o.self == "" {
			return errors.New("-peers needs -self, this node's own base URL from the list")
		}
		found := false
		for _, p := range o.peerList {
			if p == o.self {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("-self %q must appear in -peers %q", o.self, o.peers)
		}
		for _, p := range o.peerList {
			u, err := url.Parse(p)
			if err != nil || u.Scheme == "" || u.Host == "" {
				return fmt.Errorf("-peers: %q is not a base URL (want e.g. http://host:8080)", p)
			}
		}
	} else if o.self != "" {
		return errors.New("-self without -peers does nothing; list the cluster membership")
	}
	if o.vnodes < 0 {
		return fmt.Errorf("-vnodes must be >= 0 (0 = default %d; got %d)", cluster.DefaultVNodes, o.vnodes)
	}
	if o.resultMaxAge < 0 {
		return fmt.Errorf("-result-max-age must be >= 0 (0 = default; got %v)", o.resultMaxAge)
	}
	if o.replicas < 0 {
		return fmt.Errorf("-replicas must be >= 0 (0 = owner only; got %d)", o.replicas)
	}
	if o.replicas > 1 && len(o.peerList) == 0 {
		return errors.New("-replicas without -peers does nothing; list the cluster membership")
	}
	if n := len(o.peerList); n > 0 && o.replicas > n {
		return fmt.Errorf("-replicas %d exceeds the %d-member cluster", o.replicas, n)
	}
	if o.probeInterval < 0 {
		return fmt.Errorf("-probe-interval must be >= 0 (0 = failure detection off; got %v)", o.probeInterval)
	}
	if o.repairInterval < 0 {
		return fmt.Errorf("-repair-interval must be >= 0 (0 = anti-entropy repair off; got %v)", o.repairInterval)
	}
	if o.peerTimeout < 0 {
		return fmt.Errorf("-peer-timeout must be >= 0 (0 = per-op defaults; got %v)", o.peerTimeout)
	}
	return nil
}

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		parallel    = flag.Int("parallel", 0, "simulation workers (0 = GOMAXPROCS)")
		cacheDir    = flag.String("cache", "", "result cache directory (empty = in-memory only)")
		inflight    = flag.Int("max-inflight", 0, "max concurrently served run/sweep requests (0 = 2x workers)")
		timeout     = flag.Duration("job-timeout", 10*time.Minute, "per-job execution timeout (0 = none)")
		retries     = flag.Int("retries", 1, "extra attempts for a failed or timed-out job")
		shedAfter   = flag.Int("shed-after", 0, "max queued requests before shedding with 503 (0 = unbounded)")
		reqTimeout  = flag.Duration("request-timeout", 0, "per-request deadline; exceeded runs return 504 (0 = none)")
		backoff     = flag.Duration("retry-backoff", 0, "base retry pause, doubled per attempt with seeded jitter (0 = immediate)")
		brThresh    = flag.Int("breaker-threshold", 5, "consecutive disk-cache failures that trip the breaker to memory-only mode (0 = off)")
		brCooldown  = flag.Int("breaker-cooldown", 32, "denied cache probes before a tripped breaker half-opens")
		inject      = flag.String("inject", "", "deterministic fault plan, e.g. seed=42,disk-read=0.5,panic=0.1 (chaos testing only)")
		enablePprof = flag.Bool("pprof", false, "serve runtime profiles under /debug/pprof/")

		sampleOn = flag.Bool("sample", false, "resolve eligible jobs by representative-interval sampling (approximate results with error bars; failures fall back to full simulation)")
		sampleIv = flag.Int64("sample-interval", 0, "sampling interval length in instructions (0 derives insts/16 per job)")
		sampleK  = flag.Int("sample-k", 0, "representative intervals to measure per job (0 defaults to 4)")

		peers        = flag.String("peers", "", "comma-separated base URLs of every cluster member, self included (empty = single node)")
		self         = flag.String("self", "", "this node's own base URL from -peers")
		vnodes       = flag.Int("vnodes", 0, "virtual nodes per peer on the consistent-hash ring (0 = default)")
		resultMaxAge = flag.Duration("result-max-age", 0, "Cache-Control max-age for GET /v1/results (0 = default 1 year; results are immutable)")

		replicas       = flag.Int("replicas", 0, "cluster members holding each completed result (0 = owner only)")
		probeInterval  = flag.Duration("probe-interval", time.Second, "pace of the health prober driving live/suspect/down membership (0 = off)")
		repairInterval = flag.Duration("repair-interval", 30*time.Second, "pace of the anti-entropy repair pass re-filling replica gaps (0 = off)")
		peerTimeout    = flag.Duration("peer-timeout", 0, "deadline for each control-plane peer call; shard dispatch is never bounded by it (0 = per-op defaults)")
	)
	flag.Parse()

	opts := options{
		addr: *addr, parallel: *parallel, inflight: *inflight, timeout: *timeout,
		retries: *retries, shedAfter: *shedAfter, reqTimeout: *reqTimeout,
		backoff: *backoff, brThresh: *brThresh, brCooldown: *brCooldown, inject: *inject,
		sample: *sampleOn, sampleIv: *sampleIv, sampleK: *sampleK,
		peers: *peers, self: *self, vnodes: *vnodes, resultMaxAge: *resultMaxAge,
		replicas: *replicas, probeInterval: *probeInterval, repairInterval: *repairInterval,
		peerTimeout: *peerTimeout,
	}
	if err := validate(&opts); err != nil {
		fmt.Fprintln(os.Stderr, "catchd:", err)
		os.Exit(2)
	}

	plan, _ := fault.ParsePlan(*inject) // validated above
	inj := fault.NewInjector(plan)
	if inj != nil {
		fmt.Fprintf(os.Stderr, "catchd: CHAOS MODE: injecting faults (%s)\n", plan)
	}
	var fs fault.FS = fault.OS{}
	if inj != nil {
		fs = fault.InjectFS{FS: fs, Inj: inj}
	}
	var breaker *fault.Breaker
	if *brThresh > 0 {
		breaker = fault.NewBreaker(*brThresh, *brCooldown)
	}

	reg := telemetry.NewRegistry()
	eng := runner.New(runner.Options{
		Workers:        *parallel,
		Cache:          runner.NewCacheOpts(runner.CacheOptions{Dir: *cacheDir, FS: fs, Breaker: breaker}),
		Timeout:        *timeout,
		Retries:        *retries,
		Backoff:        fault.Backoff{Base: *backoff, Seed: plan.Seed},
		Fault:          inj,
		Sample:         *sampleOn,
		SampleInterval: *sampleIv,
		SampleK:        *sampleK,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "catchd: "+format+"\n", args...)
		},
		Metrics: reg,
	})
	srv := &runner.Server{
		Engine:         eng,
		Resolve:        experiments.ConfigByName,
		MaxInflight:    *inflight,
		ShedAfter:      *shedAfter,
		RequestTimeout: *reqTimeout,
		ResultMaxAge:   *resultMaxAge,
		Metrics:        reg,
		Version:        version,
		EnablePprof:    *enablePprof,
	}
	handler := srv.Handler()

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	// Cluster mode wraps the single-node handler: sweeps shard across
	// the ring, results resolve through the tiered read path, and the
	// background prober and repair pass keep replicas whole.
	if len(opts.peerList) > 0 {
		node, err := cluster.NewNode(cluster.Options{
			Self:             opts.self,
			Peers:            opts.peerList,
			VNodes:           opts.vnodes,
			Engine:           eng,
			BreakerThreshold: opts.brThresh,
			BreakerCooldown:  opts.brCooldown,
			Replicas:         opts.replicas,
			ProbeInterval:    opts.probeInterval,
			RepairInterval:   opts.repairInterval,
			Seed:             plan.Seed,
			Timeouts:         cluster.OpTimeouts{}.WithDefault(opts.peerTimeout),
			Fault:            inj,
			Metrics:          reg,
			Logf: func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, "catchd: "+format+"\n", args...)
			},
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "catchd:", err)
			os.Exit(2)
		}
		srv.ClusterInfo = node.HealthSummary
		handler = (&cluster.Server{
			Node:         node,
			Resolve:      experiments.ConfigByName,
			Inner:        handler,
			ResultMaxAge: *resultMaxAge,
			Version:      version,
		}).Handler()
		node.Start(ctx)
		fmt.Fprintf(os.Stderr, "catchd: cluster of %d (self %s, %d vnodes, %d replicas)\n",
			len(opts.peerList), opts.self, node.Ring().VNodes(), node.Replicas())
	}
	hs := &http.Server{Addr: *addr, Handler: handler}

	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "catchd: listening on %s (%d workers, cache %q)\n",
		*addr, eng.Workers(), *cacheDir)

	select {
	case err := <-errc:
		fmt.Fprintln(os.Stderr, "catchd:", err)
		os.Exit(1)
	case <-ctx.Done():
	}
	// Flip into drain mode before closing the listener: queued requests
	// shed immediately and the engine stops feeding sweep jobs, so the
	// 30s shutdown budget goes to finishing (and caching) in-flight
	// work rather than starting more.
	srv.BeginDrain()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutdownCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "catchd: shutdown:", err)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "catchd: drained, bye")
}
