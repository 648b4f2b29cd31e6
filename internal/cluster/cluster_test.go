package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"testing"

	"catch/internal/config"
	"catch/internal/runner"
)

const (
	tInsts  = 10_000
	tWarmup = 4_000
)

func testConfigs() []config.SystemConfig {
	return []config.SystemConfig{
		config.BaselineExclusive(),
		config.WithCATCH(config.NoL2(config.BaselineExclusive(), 6656*config.KB, 13, "nol2"), "nol2-catch"),
	}
}

func testResolver() runner.ConfigResolver {
	m := make(map[string]config.SystemConfig)
	for _, c := range testConfigs() {
		m[c.Name] = c
	}
	return func(name string) (config.SystemConfig, bool) {
		c, ok := m[name]
		return c, ok
	}
}

func testGrid() runner.Grid {
	return runner.Grid{
		Configs:   testConfigs(),
		Workloads: []string{"hmmer", "mcf", "tpcc"},
		Insts:     tInsts,
		Warmup:    tWarmup,
	}
}

func testSweepBody() []byte {
	names := make([]string, 0, len(testConfigs()))
	for _, c := range testConfigs() {
		names = append(names, c.Name)
	}
	raw, _ := json.Marshal(runner.SweepRequest{
		Configs:   names,
		Workloads: []string{"hmmer", "mcf", "tpcc"},
		Insts:     tInsts,
		Warmup:    tWarmup,
	})
	return raw
}

// swapHandler lets an httptest server start (and get its URL assigned)
// before the cluster handler that needs the URL exists.
type swapHandler struct {
	mu sync.Mutex
	h  http.Handler
}

func (s *swapHandler) set(h http.Handler) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.h = h
}

func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	h := s.h
	s.mu.Unlock()
	if h == nil {
		http.Error(w, "not wired yet", http.StatusServiceUnavailable)
		return
	}
	h.ServeHTTP(w, r)
}

// testCluster is n catchd-shaped nodes wired over loopback HTTP.
type testCluster struct {
	urls     []string
	nodes    []*Node
	engines  []*runner.Engine
	servers  []*httptest.Server
	handlers []*swapHandler
	wired    []http.Handler // each node's full handler, for restart after kill
	mutate   func(i int, o *Options)
}

// newTestCluster starts an n-node cluster. mutate, when non-nil, can
// adjust each node's Options before construction (chaos tests inject
// faults there).
func newTestCluster(t *testing.T, n int, mutate func(i int, o *Options)) *testCluster {
	t.Helper()
	tc := &testCluster{mutate: mutate}
	tc.handlers = make([]*swapHandler, n)
	tc.wired = make([]http.Handler, n)
	tc.nodes = make([]*Node, n)
	tc.engines = make([]*runner.Engine, n)
	for i := 0; i < n; i++ {
		tc.handlers[i] = &swapHandler{}
		srv := httptest.NewServer(tc.handlers[i])
		t.Cleanup(srv.Close)
		tc.servers = append(tc.servers, srv)
		tc.urls = append(tc.urls, srv.URL)
	}
	for i := 0; i < n; i++ {
		tc.spawn(t, i)
	}
	return tc
}

// spawn builds node i anew — a fresh engine with an empty memory-only
// cache (unless mutate swaps in another engine) and a fresh membership
// view, behind slot i's URL — and wires it to serve. Called on a
// running slot it models a node replaced by a new process that lost
// its state.
func (tc *testCluster) spawn(t *testing.T, i int) {
	t.Helper()
	eng := runner.New(runner.Options{Workers: 2, Cache: runner.NewCache("")})
	o := Options{Self: tc.urls[i], Peers: tc.urls, Engine: eng}
	if tc.mutate != nil {
		tc.mutate(i, &o)
	}
	node, err := NewNode(o)
	if err != nil {
		t.Fatalf("node %d: %v", i, err)
	}
	inner := &runner.Server{Engine: o.Engine, Resolve: testResolver()}
	cs := &Server{Node: node, Resolve: testResolver(), Inner: inner.Handler()}
	tc.nodes[i], tc.engines[i], tc.wired[i] = node, o.Engine, cs.Handler()
	tc.handlers[i].set(tc.wired[i])
}

// kill makes node i answer every request 503 (text/plain, no
// Retry-After: a crashed catchd behind a load balancer, not a
// shedding one). The process state — engine, cache, membership view —
// stays alive so restart models a quick supervisor bounce.
func (tc *testCluster) kill(i int) { tc.handlers[i].set(nil) }

// restart rewires node i's handler, modeling the supervisor bringing
// the same process state back.
func (tc *testCluster) restart(i int) { tc.handlers[i].set(tc.wired[i]) }

// newLocalServer serves h on loopback for the duration of the test and
// returns its base URL.
func newLocalServer(t *testing.T, h http.Handler) string {
	t.Helper()
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	return srv.URL
}

// sweep POSTs the standard test sweep to node i and decodes the job
// results.
func (tc *testCluster) sweep(t *testing.T, i int) []runner.JobResult {
	t.Helper()
	out, err := postSweep(tc.urls[i])
	if err != nil {
		t.Fatalf("sweep on node %d: %v", i, err)
	}
	return out
}

// postSweep POSTs the standard test sweep to the node at url. It
// reports failures as errors, so goroutines off the test's own can
// call it.
func postSweep(url string) ([]runner.JobResult, error) {
	resp, err := http.Post(url+"/v1/sweep", "application/json", bytes.NewReader(testSweepBody()))
	if err != nil {
		return nil, err
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %s", resp.Status)
	}
	var doc struct {
		Jobs []runner.JobResult `json:"jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return nil, fmt.Errorf("decode: %v", err)
	}
	return doc.Jobs, nil
}

// singleNodeFlatten computes the reference output: the same grid on a
// plain single-process engine.
func singleNodeFlatten(t *testing.T) []byte {
	t.Helper()
	g := testGrid()
	out := runner.New(runner.Options{Workers: 2}).Run(context.Background(), g.Jobs())
	return mustFlatten(t, out)
}

func mustFlatten(t *testing.T, out []runner.JobResult) []byte {
	t.Helper()
	rs, err := runner.Flatten(out)
	if err != nil {
		t.Fatalf("flatten: %v", err)
	}
	raw, err := json.Marshal(rs)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return raw
}

// TestClusterSmoke is the determinism tentpole (and the make
// cluster-smoke target): a 3-node sharded sweep must Flatten to
// byte-identical output against the single-node run, and the shards
// must actually spread across the ring.
func TestClusterSmoke(t *testing.T) {
	ref := singleNodeFlatten(t)
	tc := newTestCluster(t, 3, nil)

	out := tc.sweep(t, 0)
	if got := mustFlatten(t, out); !bytes.Equal(got, ref) {
		t.Fatal("3-node sharded sweep diverged from the single-node run")
	}

	// The ring spread the jobs: at least one peer shard executed
	// remotely (6 jobs over 3 members make an all-local split
	// astronomically unlikely, and the ring layout is deterministic).
	remote := uint64(0)
	for i := 1; i < 3; i++ {
		remote += tc.engines[i].Executed()
	}
	if remote == 0 {
		t.Fatal("no job executed on any peer; the sweep never sharded")
	}

	// A repeat sweep from a different coordinator is served from the
	// cluster's caches and stays identical.
	before := executedTotal(tc)
	out2 := tc.sweep(t, 1)
	if got := mustFlatten(t, out2); !bytes.Equal(got, ref) {
		t.Fatal("repeat sweep from another coordinator diverged")
	}
	if executedTotal(tc) != before {
		t.Fatal("repeat sweep recomputed jobs instead of hitting the caches")
	}
}

// TestClusterConcurrentSweeps runs two coordinators' sweeps of the same
// grid at once, so shards of both overlap on every owner. Both outputs
// must match the single-node run byte for byte, and each key must
// execute exactly once cluster-wide: the owner's cache coalesces the
// two shards that want it.
func TestClusterConcurrentSweeps(t *testing.T) {
	ref := singleNodeFlatten(t)
	tc := newTestCluster(t, 3, nil)

	coords := []int{0, 1}
	outs := make([][]runner.JobResult, len(coords))
	errs := make([]error, len(coords))
	var wg sync.WaitGroup
	for k, i := range coords {
		wg.Add(1)
		go func() {
			defer wg.Done()
			outs[k], errs[k] = postSweep(tc.urls[i])
		}()
	}
	wg.Wait()
	for k, i := range coords {
		if errs[k] != nil {
			t.Fatalf("sweep on node %d: %v", i, errs[k])
		}
		if got := mustFlatten(t, outs[k]); !bytes.Equal(got, ref) {
			t.Fatalf("concurrent sweep from node %d diverged from the single-node run", i)
		}
	}
	g := testGrid()
	keys := make(map[string]bool)
	for _, j := range g.Jobs() {
		keys[j.Key()] = true
	}
	if got := executedTotal(tc); got != uint64(len(keys)) {
		t.Fatalf("cluster executed %d jobs for %d distinct keys; overlapping shards must coalesce", got, len(keys))
	}
}

func executedTotal(tc *testCluster) uint64 {
	var n uint64
	for _, e := range tc.engines {
		n += e.Executed()
	}
	return n
}

// TestClusterStatus exercises /v1/cluster/status end to end, after one
// read that node 1 serves from node 0 through its peer tier.
func TestClusterStatus(t *testing.T) {
	tc := newTestCluster(t, 3, nil)
	key := "feedfacefeedface"
	for i := 0; tc.nodes[0].Ring().Owner(key, nil) != tc.urls[0]; i++ {
		key = fmt.Sprintf("%016x", i)
	}
	tc.engines[0].Cache().Put(key, tierResults())
	if _, tier, ok := tc.nodes[1].Lookup(context.Background(), key, false); !ok || tier != "peer" {
		t.Fatalf("lookup on node 1 = (%q, %v), want a peer hit", tier, ok)
	}
	resp, err := http.Get(tc.urls[1] + "/v1/cluster/status")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	var doc StatusDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc.Self != tc.urls[1] {
		t.Fatalf("status self = %q, want %q", doc.Self, tc.urls[1])
	}
	if len(doc.Members) != 3 || doc.VNodes != DefaultVNodes {
		t.Fatalf("status members/vnodes = %d/%d", len(doc.Members), doc.VNodes)
	}
	wantTiers := []TierStats{
		{Tier: "mem", Misses: 1, Promotions: 1},
		{Tier: "disk", Misses: 1, Promotions: 1},
		{Tier: "peer", Hits: 1},
	}
	if !slices.Equal(doc.Tiers, wantTiers) {
		t.Fatalf("status tiers = %+v, want %+v", doc.Tiers, wantTiers)
	}
	self := 0
	for _, p := range doc.Peers {
		if p.Self {
			self++
		} else if p.Breaker == "" {
			t.Fatalf("peer %s has no breaker state", p.Peer)
		}
	}
	if self != 1 {
		t.Fatalf("status marks %d members as self", self)
	}
}

// TestClusterPeerFetch pins the tiered read path across nodes: a result
// cached only on its owner is served to any node, promoted into the
// asking node's local tiers, and the delegating inner handler still
// serves non-cluster routes.
func TestClusterPeerFetch(t *testing.T) {
	tc := newTestCluster(t, 3, nil)
	g := testGrid()
	job := g.Jobs()[0]
	key := job.Key()

	// Find the owner and compute the result only there.
	owner := tc.nodes[0].Ring().Owner(key, nil)
	oi := -1
	for i, u := range tc.urls {
		if u == owner {
			oi = i
		}
	}
	if oi < 0 {
		t.Fatalf("owner %q not in cluster", owner)
	}
	out := tc.engines[oi].Run(context.Background(), []runner.Job{job})
	if out[0].Err != "" {
		t.Fatal(out[0].Err)
	}

	// Ask a non-owner: the peer tier serves it.
	ask := (oi + 1) % 3
	resp, err := http.Get(fmt.Sprintf("%s/v1/results/%s", tc.urls[ask], key))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("peer fetch: %s", resp.Status)
	}
	if got := resp.Header.Get("X-Catch-Tier"); got != "peer" {
		t.Fatalf("served from tier %q, want peer", got)
	}
	// Promotion: the same read now hits the asking node's memory.
	resp2, err := http.Get(fmt.Sprintf("%s/v1/results/%s", tc.urls[ask], key))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp2.Body.Close() }()
	if got := resp2.Header.Get("X-Catch-Tier"); got != "mem" {
		t.Fatalf("second read served from tier %q, want mem (promotion)", got)
	}

	// The inner runner handler still serves the rest of the API.
	hr, err := http.Get(tc.urls[ask] + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = hr.Body.Close() }()
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("healthz through the cluster handler: %s", hr.Status)
	}
}
