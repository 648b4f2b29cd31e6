package cluster

import (
	"bytes"
	"context"
	"net/http"
	"slices"
	"testing"
	"time"

	"catch/internal/fault"
	"catch/internal/runner"
	"catch/internal/workloads"
)

// TestClusterSweepSkipsDrainingPeer drains the engine of a peer that
// owns part of the sweep, as BeginDrain does on SIGTERM. The peer must
// shed its shard with 503 + Retry-After rather than hand its jobs back
// canceled, so the coordinator reroutes them: the sweep comes back all
// ok and byte-identical to the single-node run, the draining engine
// executes nothing, and the coordinator's breaker keeps the peer
// closed at a threshold of one failure (a shed proves it alive).
func TestClusterSweepSkipsDrainingPeer(t *testing.T) {
	ref := singleNodeFlatten(t)
	tc := newTestCluster(t, 3, func(i int, o *Options) {
		if i == 0 {
			o.BreakerThreshold = 1
		}
	})
	g := testGrid()
	drained := -1
	for _, j := range g.Jobs() {
		if i := slices.Index(tc.urls, tc.nodes[0].Ring().Owner(j.Key(), nil)); i > 0 {
			drained = i
			break
		}
	}
	if drained < 0 {
		t.Fatal("the coordinator owns every job; no peer shard to drain")
	}
	tc.engines[drained].Drain()

	out := tc.sweep(t, 0)
	for _, jr := range out {
		if jr.Status != runner.StatusOK {
			t.Fatalf("job %s finished %q (err %q) with node %d draining", jr.Key[:12], jr.Status, jr.Err, drained)
		}
	}
	if got := mustFlatten(t, out); !bytes.Equal(got, ref) {
		t.Fatal("sweep with a draining peer diverged from the single-node run")
	}
	if n := tc.engines[drained].Executed(); n != 0 {
		t.Fatalf("draining node %d executed %d jobs, want 0", drained, n)
	}
	if st := tc.nodes[0].client.BreakerState(tc.urls[drained]); st != fault.StateClosed {
		t.Fatalf("coordinator's breaker for the draining peer is %s, want closed", st)
	}
}

// TestClusterSweepReroutesShardCutByDrain drains a peer's engine while
// the peer runs its shard, once its first job has started: the engine
// hands the jobs it has not fed back canceled, so the peer must shed
// the shard with 503 + Retry-After rather than answer 200 with those
// jobs canceled. The coordinator reroutes the shard, and the sweep
// comes back all ok and byte-identical to the single-node run. The
// sweep is 20 jobs, so that whatever ports the nodes listen on, and so
// however the ring places the jobs, some peer owns at least two.
func TestClusterSweepReroutesShardCutByDrain(t *testing.T) {
	g := runner.Grid{Configs: testConfigs(), Insts: tInsts, Warmup: tWarmup}
	for _, w := range workloads.All()[:10] {
		g.Workloads = append(g.Workloads, w.WName)
	}
	jobs := g.Jobs()
	ref := mustFlatten(t, runner.New(runner.Options{Workers: 2}).Run(context.Background(), jobs))
	// Every peer runs one job at a time, each slowed enough that the
	// drain lands while the shard's first job runs.
	slow := fault.NewInjector(fault.Plan{Seed: 1, Rules: map[fault.Kind]fault.Rule{
		fault.Slow: {Prob: 1, Delay: 100 * time.Millisecond},
	}})
	tc := newTestCluster(t, 3, func(i int, o *Options) {
		if i > 0 {
			o.Engine = runner.New(runner.Options{Workers: 1, Cache: runner.NewCache(""), Fault: slow})
		}
	})
	owned := make([]int, len(tc.urls))
	for _, j := range jobs {
		owned[slices.Index(tc.urls, tc.nodes[0].Ring().Owner(j.Key(), nil))]++
	}
	drained := 1
	if owned[2] > owned[1] {
		drained = 2
	}
	if owned[drained] < 2 {
		t.Fatalf("no peer owns two jobs of the sweep (jobs per node %v)", owned)
	}
	eng := tc.engines[drained]
	stop := make(chan struct{})
	startedAt := make(chan uint64, 1) // the peer's executions when it was drained; 0 if it never started
	go func() {
		for eng.Executed() == 0 {
			select {
			case <-stop:
				startedAt <- 0
				return
			case <-time.After(time.Millisecond):
			}
		}
		eng.Drain()
		startedAt <- eng.Executed()
	}()
	out := tc.nodes[0].RunSweep(context.Background(), jobs, nil)
	close(stop)
	if n := <-startedAt; n == 0 || n >= uint64(owned[drained]) {
		t.Fatalf("node %d was drained after %d of its %d jobs had started, want some but not all", drained, n, owned[drained])
	}
	for _, jr := range out {
		if jr.Status != runner.StatusOK {
			t.Fatalf("job %s finished %q (err %q) with node %d drained mid-shard", jr.Key[:12], jr.Status, jr.Err, drained)
		}
	}
	if got := mustFlatten(t, out); !bytes.Equal(got, ref) {
		t.Fatal("sweep with a peer drained mid-shard diverged from the single-node run")
	}
}

// TestClusterSweepAdmission pins that the cluster's POST /v1/sweep
// takes the single-node admission of the runner.Server it wraps: a
// request timeout cuts it, so that every job comes back canceled and
// nothing executes, and a draining server sheds it with 503 +
// Retry-After.
func TestClusterSweepAdmission(t *testing.T) {
	tc := newTestCluster(t, 1, nil)
	eng := tc.engines[0]
	serve := func(inner *runner.Server) string {
		inner.Engine, inner.Resolve = eng, testResolver()
		return newLocalServer(t, (&Server{Node: tc.nodes[0], Resolve: testResolver(), Inner: inner.Handler()}).Handler())
	}

	out, err := postSweep(serve(&runner.Server{RequestTimeout: time.Nanosecond}))
	if err != nil {
		t.Fatal(err)
	}
	for _, jr := range out {
		if jr.Status != runner.StatusCanceled {
			t.Fatalf("job %s finished %q under a 1ns request timeout, want canceled", jr.Key[:12], jr.Status)
		}
	}
	if n := eng.Executed(); n != 0 {
		t.Fatalf("a timed-out sweep executed %d jobs, want 0", n)
	}

	draining := &runner.Server{}
	url := serve(draining)
	draining.BeginDrain()
	resp, err := http.Post(url+"/v1/sweep", "application/json", bytes.NewReader(testSweepBody()))
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("sweep on a draining node answered %s (Retry-After %q), want 503 with Retry-After",
			resp.Status, resp.Header.Get("Retry-After"))
	}
	if n := eng.Executed(); n != 0 {
		t.Fatalf("a shed sweep executed %d jobs, want 0", n)
	}
}
