package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"catch/internal/core"
	"catch/internal/fault"
	"catch/internal/runner"
	"catch/internal/telemetry"
)

// localOnlyHeader marks cluster-internal requests: a peer answering
// one must resolve it from its local tiers only, so two nodes can
// never fetch from each other in a cycle.
const localOnlyHeader = "X-Catch-Cluster-Local"

// OpTimeouts bounds each peer-call kind with its own deadline. The
// control-plane calls (fetch, fill, manifest) are small JSON exchanges
// that deserve tight deadlines; a shard dispatch runs whole
// simulations on the peer and must never be cut by a client-side
// default — only the sweep's own context bounds it. A zero field means
// "no client-imposed deadline beyond the caller's context".
type OpTimeouts struct {
	Fetch    time.Duration
	Fill     time.Duration
	Manifest time.Duration
	Probe    time.Duration
	Shard    time.Duration
}

// DefaultOpTimeouts returns the per-op deadlines used when
// ClientOptions leaves them unset: 10s for control-plane calls, 2s
// for the health probe (a slow answer is the signal), and no
// client-side bound on shard dispatch.
func DefaultOpTimeouts() OpTimeouts {
	return OpTimeouts{
		Fetch:    10 * time.Second,
		Fill:     10 * time.Second,
		Manifest: 10 * time.Second,
		Probe:    2 * time.Second,
		Shard:    0,
	}
}

// WithDefault fills every control-plane field from d (the -peer-timeout
// flag), keeping the probe deadline at min(d, default) so failure
// detection stays snappy even under a generous control-plane budget.
func (t OpTimeouts) WithDefault(d time.Duration) OpTimeouts {
	if d <= 0 {
		return t
	}
	t.Fetch, t.Fill, t.Manifest = d, d, d
	if probe := DefaultOpTimeouts().Probe; d > probe {
		t.Probe = probe
	} else {
		t.Probe = d
	}
	return t
}

// forOp maps an op name to its deadline.
func (t OpTimeouts) forOp(op string) time.Duration {
	switch op {
	case "fetch":
		return t.Fetch
	case "fill":
		return t.Fill
	case "manifest":
		return t.Manifest
	case "probe":
		return t.Probe
	case "shard":
		return t.Shard
	}
	return 0
}

// Client is the HTTP client one node uses to talk to its peers. Every
// peer has its own circuit breaker: a dead peer fails fast after a few
// attempts instead of stalling each lookup, and heals through the
// standard half-open probe. A fault.Injector (chaos mode) can make any
// peer call fail deterministically via the fault.Peer kind; peer-call
// sites embed the target peer's URL, so a matched rule severs exactly
// the links to one peer (the partition chaos tests are built on this).
type Client struct {
	http     *http.Client
	thresh   int
	cooldown int
	timeouts OpTimeouts

	mu  sync.Mutex
	inj *fault.Injector
	brs map[string]*fault.Breaker

	mFetchSeconds *telemetry.Histogram
	mCalls        *telemetry.Counter
	mErrs         *telemetry.Counter
	mSheds        *telemetry.Counter
}

// ClientOptions configures a peer client.
type ClientOptions struct {
	// Timeouts bounds each call kind; zero fields take
	// DefaultOpTimeouts (control-plane 10s, probe 2s, shard unbounded).
	Timeouts OpTimeouts
	// Fault injects deterministic peer-call failures (chaos only).
	Fault *fault.Injector
	// BreakerThreshold/BreakerCooldown parameterize each peer's
	// breaker; non-positive values take fault.NewBreaker's defaults.
	BreakerThreshold int
	BreakerCooldown  int
	// Metrics, when non-nil, receives the peer-call series (latency
	// histogram, call/error/shed counters).
	Metrics *telemetry.Registry
}

// NewClient builds a peer client. Its transport has no overall
// timeout: deadlines are per-op via Timeouts, so a long shard dispatch
// is never cut by a transport-wide budget.
func NewClient(o ClientOptions) *Client {
	def := DefaultOpTimeouts()
	t := o.Timeouts
	if t.Fetch == 0 {
		t.Fetch = def.Fetch
	}
	if t.Fill == 0 {
		t.Fill = def.Fill
	}
	if t.Manifest == 0 {
		t.Manifest = def.Manifest
	}
	if t.Probe == 0 {
		t.Probe = def.Probe
	}
	c := &Client{
		http:     &http.Client{},
		inj:      o.Fault,
		thresh:   o.BreakerThreshold,
		cooldown: o.BreakerCooldown,
		timeouts: t,
		brs:      make(map[string]*fault.Breaker),
	}
	if r := o.Metrics; r != nil {
		c.mFetchSeconds = r.Histogram("catch_cluster_peer_fetch_seconds",
			"Wall-clock latency of one peer call (result fetch, shard, fill, manifest, probe).",
			0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5, 10)
		c.mCalls = r.Counter("catch_cluster_peer_calls_total", "Peer calls attempted.")
		c.mErrs = r.Counter("catch_cluster_peer_errors_total", "Peer calls that failed (breaker fodder).")
		c.mSheds = r.Counter("catch_cluster_peer_sheds_total",
			"Peer calls answered 503 + Retry-After (peer alive but shedding; not breaker fodder).")
	}
	return c
}

// SetFault swaps the client's fault injector at runtime. Chaos tests
// use it to impose and heal a network partition mid-test; production
// never calls it.
func (c *Client) SetFault(inj *fault.Injector) {
	c.mu.Lock()
	c.inj = inj
	c.mu.Unlock()
}

func (c *Client) injector() *fault.Injector {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.inj
}

// breaker returns the breaker guarding peer, creating it on first use.
func (c *Client) breaker(peer string) *fault.Breaker {
	c.mu.Lock()
	defer c.mu.Unlock()
	br, ok := c.brs[peer]
	if !ok {
		br = fault.NewBreaker(c.thresh, c.cooldown)
		c.brs[peer] = br
	}
	return br
}

// BreakerState exposes a peer's breaker state for /v1/cluster/status.
func (c *Client) BreakerState(peer string) fault.BreakerState {
	return c.breaker(peer).State()
}

// do runs one peer call under the peer's breaker, the injector, the
// op's deadline and the latency histogram. op names the call kind and
// site the payload; the fault site is op+":"+peer+":"+site so a chaos
// plan can select calls by kind, by peer (partitions) or by key, and
// picks the same calls in every run.
//
// A shed response (503 + Retry-After) is classified alive-but-busy: it
// proves the peer is up, so it feeds the breaker as a success — load
// shedding must never snowball into "peer marked down" — while still
// failing this call. Everything else feeds the breaker as a failure.
func (c *Client) do(ctx context.Context, peer, op, site string, useBreaker bool, call func(ctx context.Context) error) error {
	var br *fault.Breaker
	if useBreaker {
		br = c.breaker(peer)
		if !br.Allow() {
			return fmt.Errorf("peer %s: circuit open", peer)
		}
	}
	c.mCalls.Inc()
	faultSite := op + ":" + peer + ":" + site
	if inj := c.injector(); inj != nil && inj.Fire(fault.Peer, faultSite) {
		br.Failure()
		c.mErrs.Inc()
		return inj.Err(fault.Peer, faultSite)
	}
	if d := c.timeouts.forOp(op); d > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, d)
		defer cancel()
	}
	//catchlint:ignore determinism peer-call latency is observability-only and never reaches a simulation result
	start := time.Now()
	err := call(ctx)
	//catchlint:ignore determinism peer-call latency is observability-only and never reaches a simulation result
	c.mFetchSeconds.Observe(time.Since(start).Seconds())
	if err != nil {
		if IsShed(err) {
			c.mSheds.Inc()
			br.Success()
		} else {
			br.Failure()
			c.mErrs.Inc()
		}
		return err
	}
	br.Success()
	return nil
}

// getJSON performs a GET and decodes the 200 body into out. A 404
// reports found=false with no error; any other status is an error.
func (c *Client) getJSON(ctx context.Context, peer, op, site, url string, useBreaker bool, out any) (found bool, err error) {
	err = c.do(ctx, peer, op, site, useBreaker, func(ctx context.Context) error {
		req, rerr := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
		if rerr != nil {
			return rerr
		}
		req.Header.Set(localOnlyHeader, "1")
		resp, rerr := c.http.Do(req)
		if rerr != nil {
			return rerr
		}
		defer func() { _ = resp.Body.Close() }()
		switch resp.StatusCode {
		case http.StatusOK:
			found = true
			return json.NewDecoder(resp.Body).Decode(out)
		case http.StatusNotFound:
			return nil
		default:
			return peerStatusError(peer, resp)
		}
	})
	return found, err
}

// postJSON performs a POST with a JSON body and decodes the 200
// response into out (when non-nil).
func (c *Client) postJSON(ctx context.Context, peer, op, site, url string, in, out any) error {
	return c.do(ctx, peer, op, site, true, func(ctx context.Context) error {
		raw, err := json.Marshal(in)
		if err != nil {
			return err
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(raw))
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set(localOnlyHeader, "1")
		resp, err := c.http.Do(req)
		if err != nil {
			return err
		}
		defer func() { _ = resp.Body.Close() }()
		if resp.StatusCode != http.StatusOK {
			return peerStatusError(peer, resp)
		}
		if out == nil {
			_, err = io.Copy(io.Discard, resp.Body)
			return err
		}
		return json.NewDecoder(resp.Body).Decode(out)
	})
}

// PeerStatusError is a non-200 peer response, carrying enough
// structure to classify shed-vs-dead: a 503 with a Retry-After header
// is a live peer protecting itself (the shedding path every catchd
// runs under -shed-after), not a dead one, and must not trip the
// peer's breaker or the failure detector.
type PeerStatusError struct {
	Peer       string
	StatusCode int
	Status     string
	// RetryAfter is the parsed Retry-After header (0 when absent); a
	// caller that can defer honors it by trying again no sooner than
	// this.
	RetryAfter time.Duration
	Body       string
}

func (e *PeerStatusError) Error() string {
	return fmt.Sprintf("peer %s: %s: %s", e.Peer, e.Status, e.Body)
}

// Shed reports whether the response was a live peer shedding load.
func (e *PeerStatusError) Shed() bool {
	return e.StatusCode == http.StatusServiceUnavailable && e.RetryAfter > 0
}

// IsShed reports whether err is a shed response from a live peer.
func IsShed(err error) bool {
	var pse *PeerStatusError
	return errors.As(err, &pse) && pse.Shed()
}

// RetryAfter extracts the shedding peer's requested pause from err
// (0 when err is not a shed response).
func RetryAfter(err error) time.Duration {
	var pse *PeerStatusError
	if errors.As(err, &pse) && pse.Shed() {
		return pse.RetryAfter
	}
	return 0
}

// peerStatusError folds a non-200 peer response into a typed error
// carrying the status code, a parsed Retry-After and a bounded slice
// of the body for diagnosis.
func peerStatusError(peer string, resp *http.Response) error {
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
	e := &PeerStatusError{
		Peer:       peer,
		StatusCode: resp.StatusCode,
		Status:     resp.Status,
		Body:       string(bytes.TrimSpace(raw)),
	}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		if secs, err := strconv.Atoi(ra); err == nil && secs > 0 {
			e.RetryAfter = time.Duration(secs) * time.Second
		}
	}
	return e
}

// resultDoc is the results-API response body.
type resultDoc struct {
	Key     string        `json:"key"`
	Results []core.Result `json:"results"`
}

// FetchResult asks peer for a cached result by key (its local tiers
// only). found=false is a clean miss.
func (c *Client) FetchResult(ctx context.Context, peer, key string) ([]core.Result, bool, error) {
	var doc resultDoc
	found, err := c.getJSON(ctx, peer, "fetch", key, peer+"/v1/results/"+key, true, &doc)
	if err != nil || !found {
		return nil, false, err
	}
	if len(doc.Results) == 0 {
		return nil, false, nil
	}
	return doc.Results, true, nil
}

// Probe pings a peer for the failure detector. It bypasses the peer's
// breaker — the prober IS the thing that decides up/down, and an open
// breaker must not be able to mask a recovered peer — and treats a
// shed response as alive (the peer answered; it is busy, not dead).
func (c *Client) Probe(ctx context.Context, peer string) error {
	var doc pingDoc
	_, err := c.getJSON(ctx, peer, "probe", peer, peer+"/v1/cluster/ping", false, &doc)
	if err != nil && IsShed(err) {
		return nil
	}
	return err
}

// Manifest fetches the sorted list of result keys a peer holds, for
// the reconcile diff.
func (c *Client) Manifest(ctx context.Context, peer string) ([]string, error) {
	var doc manifestDoc
	found, err := c.getJSON(ctx, peer, "manifest", peer, peer+"/v1/cluster/manifest", true, &doc)
	if err != nil {
		return nil, err
	}
	if !found {
		return nil, fmt.Errorf("peer %s: no cluster manifest", peer)
	}
	return doc.Keys, nil
}

// RunShard dispatches a job shard to its owner peer and returns the
// per-job results in request order. The bool argument is ignored; it
// stays only so existing callers compile.
func (c *Client) RunShard(ctx context.Context, peer string, jobs []runner.Job, _ bool) ([]runner.JobResult, error) {
	var resp shardResponse
	err := c.postJSON(ctx, peer, "shard", shardSite(jobs), peer+"/v1/cluster/shard",
		shardRequest{Jobs: jobs}, &resp)
	if err != nil {
		return nil, err
	}
	if len(resp.Jobs) != len(jobs) {
		return nil, fmt.Errorf("peer %s: shard returned %d results for %d jobs", peer, len(resp.Jobs), len(jobs))
	}
	return resp.Jobs, nil
}

// shardSite derives a stable fault site for a shard dispatch from its
// first job key.
func shardSite(jobs []runner.Job) string {
	if len(jobs) == 0 {
		return "empty"
	}
	return jobs[0].Key()
}

// ReplicaFill pushes a replica copy of a completed result to one
// member of its replica set. The receiver stores it and nothing more —
// fills never fan out again, so replication cannot loop.
func (c *Client) ReplicaFill(ctx context.Context, peer, key string, rs []core.Result) error {
	return c.postJSON(ctx, peer, "fill", key, peer+"/v1/cluster/fill",
		fillRequest{Key: key, Results: rs}, nil)
}
