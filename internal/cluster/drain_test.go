package cluster

import (
	"bytes"
	"net/http"
	"slices"
	"testing"
	"time"

	"catch/internal/fault"
	"catch/internal/runner"
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
