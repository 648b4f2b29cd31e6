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

// defaultPeerTimeout bounds a control-plane peer call (fetch, fill,
// manifest) when no PeerTimeout is set, and probeTimeout caps the
// health probe, whose slow answer is itself the signal.
const (
	defaultPeerTimeout = 10 * time.Second
	probeTimeout       = 2 * time.Second
)

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
	timeout  time.Duration

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
	// PeerTimeout bounds each control-plane call (fetch, fill,
	// manifest); 0 means 10s. The probe gets min(PeerTimeout, 2s), and
	// a shard dispatch, which runs whole simulations on the peer, only
	// its caller's context.
	PeerTimeout time.Duration
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
// timeout: each call kind gets its own deadline (opTimeout), so a long
// shard dispatch is never cut by a transport-wide budget.
func NewClient(o ClientOptions) *Client {
	c := &Client{
		http:     &http.Client{},
		inj:      o.Fault,
		thresh:   o.BreakerThreshold,
		cooldown: o.BreakerCooldown,
		timeout:  o.PeerTimeout,
		brs:      make(map[string]*fault.Breaker),
	}
	if c.timeout <= 0 {
		c.timeout = defaultPeerTimeout
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
	if d := c.opTimeout(op); d > 0 {
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

// opTimeout is the client-side deadline of one call kind: the peer
// timeout for the control plane, at most probeTimeout for the probe,
// and none for a shard dispatch (0).
func (c *Client) opTimeout(op string) time.Duration {
	switch op {
	case "shard":
		return 0
	case "probe":
		return min(c.timeout, probeTimeout)
	}
	return c.timeout
}

// get performs a GET and hands the 200 body to read, or discards it
// when read is nil. A 404 reports found=false with no error; any other
// status is an error.
func (c *Client) get(ctx context.Context, peer, op, site, url string, useBreaker bool, read func(io.Reader) error) (found bool, err error) {
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
			return readBody(resp.Body, read)
		case http.StatusNotFound:
			return nil
		default:
			return peerStatusError(peer, resp)
		}
	})
	return found, err
}

// postJSON performs a POST with a JSON body and hands the 200 body to
// read, or discards it when read is nil.
func (c *Client) postJSON(ctx context.Context, peer, op, site, url string, in any, read func(io.Reader) error) error {
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
		return readBody(resp.Body, read)
	})
}

// readBody hands a 200 body to read, or drains it when read is nil so
// the connection can be reused.
func readBody(body io.Reader, read func(io.Reader) error) error {
	if read == nil {
		_, err := io.Copy(io.Discard, body)
		return err
	}
	return read(body)
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

// FetchResult asks peer for a cached result by key (its local tiers
// only). found=false is a clean miss.
func (c *Client) FetchResult(ctx context.Context, peer, key string) ([]core.Result, bool, error) {
	var rs []core.Result
	found, err := c.get(ctx, peer, "fetch", key, peer+"/v1/results/"+key, true, func(body io.Reader) (err error) {
		rs, err = readResultsDoc(body, key)
		return err
	})
	if err != nil || !found || len(rs) == 0 {
		return nil, false, err
	}
	return rs, true, nil
}

// readResultsDoc reads a GET /v1/results/{key} reply. Like a fill, it
// holds one job's results, at most maxFillResults, and it must name
// the key asked for.
func readResultsDoc(body io.Reader, key string) ([]core.Result, error) {
	doc, err := readDoc(body, maxFillBody, resultsDocDecoder)
	switch {
	case err != nil:
		return nil, err
	case doc.Key != key:
		return nil, fmt.Errorf("results document names key %q, want %s", doc.Key, key)
	case len(doc.Results) > maxFillResults:
		return nil, fmt.Errorf("results document holds %d results, more than the %d one job has", len(doc.Results), maxFillResults)
	}
	return doc.Results, nil
}

// Probe pings a peer for the failure detector. It bypasses the peer's
// breaker — the prober IS the thing that decides up/down, and an open
// breaker must not be able to mask a recovered peer — and treats a
// shed response as alive (the peer answered; it is busy, not dead).
// The body of a 200 is not read: the status alone means up.
func (c *Client) Probe(ctx context.Context, peer string) error {
	_, err := c.get(ctx, peer, "probe", peer, peer+"/v1/cluster/ping", false, nil)
	if err != nil && IsShed(err) {
		return nil
	}
	return err
}

// Manifest fetches the sorted list of result keys a peer holds, for
// the reconcile diff.
func (c *Client) Manifest(ctx context.Context, peer string) ([]string, error) {
	var doc manifestDoc
	found, err := c.get(ctx, peer, "manifest", peer, peer+"/v1/cluster/manifest", true, func(body io.Reader) (err error) {
		doc, err = readDoc(body, maxManifestBody, manifestDecoder)
		return err
	})
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
	var out []runner.JobResult
	err := c.postJSON(ctx, peer, "shard", shardSite(jobs), peer+"/v1/cluster/shard",
		shardRequest{Jobs: jobs}, func(body io.Reader) (err error) {
			out, err = readShardReply(body, jobs)
			return err
		})
	return out, err
}

// readShardReply reads a POST /v1/cluster/shard reply to jobs: at most
// maxJobResultBody bytes per job, and one result per job, in job
// order, under that job's key.
func readShardReply(body io.Reader, jobs []runner.Job) ([]runner.JobResult, error) {
	reply, err := readDoc(body, int64(len(jobs))*maxJobResultBody, shardReplyDecoder)
	if err != nil {
		return nil, err
	}
	if len(reply.Jobs) != len(jobs) {
		return nil, fmt.Errorf("shard reply holds %d results for %d jobs", len(reply.Jobs), len(jobs))
	}
	for i := range jobs {
		if key := jobs[i].Key(); reply.Jobs[i].Key != key {
			return nil, fmt.Errorf("shard reply's result %d is for key %q, want %s", i, reply.Jobs[i].Key, key)
		}
	}
	return reply.Jobs, nil
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
		runner.ResultsDoc{Key: key, Results: rs}, nil)
}
