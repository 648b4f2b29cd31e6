package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"catch/internal/cluster"
	"catch/internal/core"
	"catch/internal/experiments"
	"catch/internal/runner"
	"catch/internal/telemetry"
)

// Cluster sizing: three nodes with one engine worker each and two
// replicas per result; every sweep is a fresh set of tiny-budget jobs.
const (
	clusterNodes      = 3
	clusterReplicas   = 2
	clusterSweepJobs  = 16
	clusterInsts      = 1_000
	clusterWarmup     = 500
	clusterHealRounds = 200
	clusterCheckMax   = 8 // sweeps re-run on a single node after timing
	clusterSetupReps  = 5
)

// swapHandler lets a loopback server start (and get its URL) before
// the node that needs the URL exists, and lets the benchmark make the
// node answer 503 while its process state stays alive.
type swapHandler struct {
	mu sync.Mutex
	h  http.Handler
}

func (s *swapHandler) set(h http.Handler) {
	s.mu.Lock()
	s.h = h
	s.mu.Unlock()
}

func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	h := s.h
	s.mu.Unlock()
	if h == nil {
		http.Error(w, "node down", http.StatusServiceUnavailable)
		return
	}
	h.ServeHTTP(w, r)
}

// clusterEnv is three catchd nodes wired over loopback HTTP.
type clusterEnv struct {
	urls     []string
	servers  []*httptest.Server
	handlers []*swapHandler
	wired    []http.Handler
	nodes    []*cluster.Node
	engines  []*runner.Engine
	regs     []*telemetry.Registry
}

func (c *clusterEnv) close() {
	for _, s := range c.servers {
		s.Close()
	}
}

func newClusterEnv() (*clusterEnv, error) {
	c := &clusterEnv{}
	for i := 0; i < clusterNodes; i++ {
		h := &swapHandler{}
		srv := httptest.NewServer(h)
		c.handlers = append(c.handlers, h)
		c.servers = append(c.servers, srv)
		c.urls = append(c.urls, srv.URL)
	}
	for i := 0; i < clusterNodes; i++ {
		eng := runner.New(runner.Options{Workers: 1, Cache: runner.NewCache("")})
		reg := telemetry.NewRegistry()
		node, err := cluster.NewNode(cluster.Options{
			Self:         c.urls[i],
			Peers:        c.urls,
			Engine:       eng,
			Replicas:     clusterReplicas,
			LentDeadline: 2 * time.Second,
			Metrics:      reg,
		})
		if err != nil {
			c.close()
			return nil, err
		}
		inner := &runner.Server{Engine: eng, Resolve: experiments.ConfigByName}
		cs := &cluster.Server{Node: node, Resolve: experiments.ConfigByName, Inner: inner.Handler()}
		c.wired = append(c.wired, cs.Handler())
		c.handlers[i].set(c.wired[i])
		c.nodes = append(c.nodes, node)
		c.engines = append(c.engines, eng)
		c.regs = append(c.regs, reg)
	}
	// One probe round opens the peer connections before anything is timed.
	for _, node := range c.nodes {
		node.ProbeOnce(context.Background())
	}
	return c, nil
}

// index maps a member URL to its node index.
func (c *clusterEnv) index(url string) int {
	for i, u := range c.urls {
		if u == url {
			return i
		}
	}
	return -1
}

// nonOwner returns a node outside key's replica set.
func (c *clusterEnv) nonOwner(key string) int {
	owners := c.nodes[0].Ring().Owners(key, clusterReplicas, nil)
	for i, u := range c.urls {
		if u != owners[0] && (len(owners) < 2 || u != owners[1]) {
			return i
		}
	}
	return -1
}

// replicated reports whether every key sits in the memory tier of
// every member of its replica set.
func (c *clusterEnv) replicated(keys []string) bool {
	for _, key := range keys {
		for _, owner := range c.nodes[0].Ring().Owners(key, clusterReplicas, nil) {
			if _, ok := c.engines[c.index(owner)].Cache().GetMem(key); !ok {
				return false
			}
		}
	}
	return true
}

// counter sums one exposition series over every node's registry.
func (c *clusterEnv) counter(name string) float64 {
	total := 0.0
	for _, reg := range c.regs {
		var buf bytes.Buffer
		if reg.WriteText(&buf) != nil {
			continue
		}
		sc := bufio.NewScanner(&buf)
		for sc.Scan() {
			if v, ok := strings.CutPrefix(sc.Text(), name+" "); ok {
				if f, err := strconv.ParseFloat(v, 64); err == nil {
					total += f
				}
			}
		}
	}
	return total
}

// clusterJobs draws one sweep's jobs; the (cycle, phase) pair goes
// into the budget so every sweep's keys are fresh.
func clusterJobs(seed uint64, cycle, phase int) []runner.Job {
	rng := newSplitmix(seed ^ uint64(cycle)<<8 ^ uint64(phase) ^ 0xc1)
	jobs := make([]runner.Job, clusterSweepJobs)
	for i := range jobs {
		jobs[i] = serveJob(rng, clusterInsts+int64(2*cycle+phase), clusterWarmup)
	}
	return jobs
}

// readResult GETs key from node i and checks it against want.
func (c *clusterEnv) readResult(client *http.Client, i int, key string, want []core.Result) error {
	resp, err := client.Get(c.urls[i] + "/v1/results/" + key)
	if err != nil {
		return err
	}
	var doc struct {
		Key     string        `json:"key"`
		Results []core.Result `json:"results"`
	}
	err = json.NewDecoder(resp.Body).Decode(&doc)
	_ = resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || doc.Key != key {
		return fmt.Errorf("read %.12s from node %d: %s (%v)", key, i, resp.Status, err)
	}
	got, err1 := json.Marshal(doc.Results)
	ref, err2 := json.Marshal(want)
	if err1 != nil || err2 != nil || !bytes.Equal(got, ref) {
		return fmt.Errorf("read %.12s from node %d: results differ from the sweep's", key, i)
	}
	return nil
}

// clusterStats accumulates one run's cluster timings.
type clusterStats struct {
	sweepMs, degradedMs, readMs, coordReadMs, healMs, healRounds []float64
	sweeps                                                       [][]runner.Job
	outs                                                         [][]runner.JobResult
}

// cycle runs one sweep → read → fail → sweep → heal round.
func (c *clusterEnv) cycle(r *run, client *http.Client, n int, st *clusterStats) {
	ctx := context.Background()
	jobs := clusterJobs(r.seed, n, 0)
	t0 := time.Now()
	out := c.nodes[0].RunSweep(ctx, jobs, nil)
	st.sweepMs = append(st.sweepMs, ms(time.Since(t0)))
	keys := c.checkSweep(r, "sweep", jobs, out, st)

	// The coordinator caches every result it gathered, so its reads are
	// memory hits; they are kept apart from the peer-tier reads the other
	// non-owners serve. The ring places the keys by the nodes' loopback
	// ports, so the mix of the two would vary from run to run.
	for i := range jobs {
		if out[i].Status != runner.StatusOK {
			continue
		}
		node := c.nonOwner(keys[i])
		t0 := time.Now()
		err := c.readResult(client, node, keys[i], out[i].Results)
		if node == 0 {
			st.coordReadMs = append(st.coordReadMs, ms(time.Since(t0)))
		} else {
			st.readMs = append(st.readMs, ms(time.Since(t0)))
		}
		r.expect(err == nil, "%v", err)
	}

	// The last node answers 503; three missed probes condemn it on both
	// survivors, so the degraded sweep hints its replica fills.
	down := clusterNodes - 1
	c.handlers[down].set(nil)
	for round := 0; round < 3; round++ {
		for i := 0; i < down; i++ {
			c.nodes[i].ProbeOnce(ctx)
		}
	}
	jobs2 := clusterJobs(r.seed, n, 1)
	t0 = time.Now()
	out2 := c.nodes[0].RunSweep(ctx, jobs2, nil)
	st.degradedMs = append(st.degradedMs, ms(time.Since(t0)))
	keys = append(keys, c.checkSweep(r, "degraded sweep", jobs2, out2, st)...)

	c.handlers[down].set(c.wired[down])
	t0 = time.Now()
	healed := false
	for round := 1; round <= clusterHealRounds && !healed; round++ {
		for i, node := range c.nodes {
			node.ProbeOnce(ctx)
			for k, u := range c.urls {
				if k != i {
					node.DrainHints(ctx, u)
				}
			}
			_, err := node.RepairOnce(ctx)
			r.expect(err == nil, "repair on node %d: %v", i, err)
		}
		if healed = c.replicated(keys); healed {
			st.healRounds = append(st.healRounds, float64(round))
		}
	}
	st.healMs = append(st.healMs, ms(time.Since(t0)))
	r.expect(healed, "cycle %d: not fully replicated after %d heal rounds", n, clusterHealRounds)
}

// checkSweep checks a sweep's statuses, keeps it for the single-node
// comparison, and returns its keys.
func (c *clusterEnv) checkSweep(r *run, name string, jobs []runner.Job, out []runner.JobResult, st *clusterStats) []string {
	keys := make([]string, len(jobs))
	for i := range out {
		keys[i] = jobs[i].Key()
		r.expect(out[i].Status == runner.StatusOK && out[i].Key == keys[i],
			"%s job %d: %s %s", name, i, out[i].Status, out[i].Err)
	}
	if len(st.sweeps) < clusterCheckMax {
		st.sweeps = append(st.sweeps, jobs)
		st.outs = append(st.outs, out)
	}
	return keys
}

// runCluster repeats the sweep/read/fail/heal cycle for the window,
// then re-runs the kept sweeps on a single node and requires
// byte-identical Flatten output.
func runCluster(r *run) error {
	env, setupS, err := medianSetup(clusterSetupReps, newClusterEnv, (*clusterEnv).close)
	if err != nil {
		return err
	}
	defer env.close()
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: r.workers}}
	defer client.CloseIdleConnections()

	// Each cycle starts from a collected heap, so no cycle pays for an
	// earlier one's garbage.
	st := &clusterStats{}
	deadline := time.Now().Add(r.window)
	for n := 0; n == 0 || time.Now().Before(deadline); n++ {
		runtime.GC()
		env.cycle(r, client, n, st)
	}

	jobs := 0
	for i := range st.sweeps {
		jobs += len(st.sweeps[i])
		ref := runner.New(runner.Options{Workers: r.workers}).Run(context.Background(), st.sweeps[i])
		want, err1 := digest(ref)
		got, err2 := digest(st.outs[i])
		r.expect(err1 == nil && err2 == nil && got == want,
			"sweep %d: cluster digest %s != single-node %s (%v %v)", i, got, want, err1, err2)
	}
	fmt.Printf("cluster: %d cycles; %d sweeps (%d jobs) matched a single-node run byte for byte\n",
		len(st.sweepMs), len(st.sweeps), jobs)
	r.print("cluster_sweep_s", median(st.sweepMs)/1000, "s", len(st.sweepMs))
	r.print("cluster_degraded_sweep_s", median(st.degradedMs)/1000, "s", len(st.degradedMs))
	r.print("cluster_read_p50_ms", at(st.readMs, 0.5), "ms", len(st.readMs))
	r.print("cluster_read_p90_ms", at(st.readMs, 0.9), "ms", len(st.readMs))
	r.printDist("cluster_read_coordinator_ms", st.coordReadMs, "ms")
	r.print("cluster_heal_s", median(st.healMs)/1000, "s", len(st.healMs))
	r.print("cluster_heal_rounds", median(st.healRounds), "count", len(st.healRounds))
	r.print("cluster_hints_queued", env.counter("catch_cluster_hints_queued_total"), "count", len(st.healMs))
	r.print("cluster_hints_drained", env.counter("catch_cluster_hints_drained_total"), "count", len(st.healMs))
	r.print("cluster_repair_fills", env.counter("catch_cluster_repair_fills_total"), "count", len(st.healMs))
	r.report("setup_s", setupS, "s", clusterSetupReps)
	r.report("compute_ms", median(st.sweepMs), "ms", len(st.sweepMs))
	r.report("cached_ms", at(st.readMs, 0.5), "ms", len(st.readMs))
	r.report("cached_p90_ms", at(st.readMs, 0.9), "ms", len(st.readMs))
	return nil
}
