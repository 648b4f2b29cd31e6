package cluster

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"

	"catch/internal/fault"
	"catch/internal/runner"
)

// TestClusterKillOnePeer is the chaos tentpole: a peer dies mid-cluster,
// the ring reroutes its shard to the survivors, and the sweep completes
// with byte-identical output. Results are content-addressed, so a
// reroute can only recompute — never diverge.
func TestClusterKillOnePeer(t *testing.T) {
	ref := singleNodeFlatten(t)
	tc := newTestCluster(t, 3, nil)

	// Kill a non-coordinator before the sweep starts. Its engine is
	// still alive in-process, but every HTTP call to it now fails the
	// way a crashed catchd would.
	tc.servers[1].Close()

	out := tc.sweep(t, 0)
	for _, jr := range out {
		if jr.Status != runner.StatusOK {
			t.Fatalf("job %s finished %q (err %q) with a dead peer", jr.Key[:12], jr.Status, jr.Err)
		}
	}
	if got := mustFlatten(t, out); !bytes.Equal(got, ref) {
		t.Fatal("sweep with a dead peer diverged from the single-node run")
	}

	// The dead peer computed nothing; the survivors absorbed its shard.
	if n := tc.engines[1].Executed(); n != 0 {
		t.Fatalf("dead peer executed %d jobs", n)
	}
	if tc.engines[0].Executed()+tc.engines[2].Executed() == 0 {
		t.Fatal("no survivor executed anything")
	}
}

// TestClusterPeerFaultInjection drives the same degradation through the
// fault injector instead of a closed socket: every peer call from the
// coordinator fails deterministically, the per-peer breakers trip, and
// the sweep still completes exactly via rerouted local compute.
func TestClusterPeerFaultInjection(t *testing.T) {
	ref := singleNodeFlatten(t)
	inj := fault.NewInjector(fault.Plan{
		Seed:  42,
		Rules: map[fault.Kind]fault.Rule{fault.Peer: {Prob: 1, Times: 1 << 20}},
	})
	tc := newTestCluster(t, 3, func(i int, o *Options) {
		if i == 0 {
			o.Fault = inj
			// One failure is enough here: the sweep reroutes after the
			// first failed dispatch, so each peer sees few calls.
			o.BreakerThreshold = 1
		}
	})

	out := tc.sweep(t, 0)
	for _, jr := range out {
		if jr.Status != runner.StatusOK {
			t.Fatalf("job %s finished %q (err %q) under peer faults", jr.Key[:12], jr.Status, jr.Err)
		}
	}
	if got := mustFlatten(t, out); !bytes.Equal(got, ref) {
		t.Fatal("sweep under injected peer faults diverged from the single-node run")
	}

	// With every outbound peer call failing, the coordinator must have
	// computed the whole grid itself.
	g := testGrid()
	if n := tc.engines[0].Executed(); n != uint64(len(g.Jobs())) {
		t.Fatalf("coordinator executed %d jobs, want all %d", n, len(g.Jobs()))
	}

	// The injected failures are visible as tripped peer breakers in the
	// coordinator's status document.
	resp, err := http.Get(tc.urls[0] + "/v1/cluster/status")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	var doc StatusDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	open := 0
	for _, p := range doc.Peers {
		if !p.Self && p.Breaker == "open" {
			open++
		}
	}
	if open == 0 {
		t.Fatal("no peer breaker opened under a 100% fault plan")
	}

	// Degradation is graceful both ways: a node without the injector
	// still reaches its peers, and its sweep lands on the same bytes.
	// (The degraded sweep cached everything on the coordinator, not on
	// the ring owners, so the survivors may recompute their shards —
	// but the coordinator itself serves straight from its cache.)
	before := tc.engines[0].Executed()
	out2 := tc.sweep(t, 1)
	if got := mustFlatten(t, out2); !bytes.Equal(got, ref) {
		t.Fatal("follow-up sweep from a healthy node diverged")
	}
	if tc.engines[0].Executed() != before {
		t.Fatal("coordinator recomputed jobs already in its cache")
	}
}

// TestClusterFaultInjectionIsDeterministic pins that the chaos schedule
// is a pure function of the plan: two injectors with the same seed make
// identical fire decisions at identical sites.
func TestClusterFaultInjectionIsDeterministic(t *testing.T) {
	plan := fault.Plan{Seed: 7, Rules: map[fault.Kind]fault.Rule{fault.Peer: {Prob: 0.5, Times: 3}}}
	a, b := fault.NewInjector(plan), fault.NewInjector(plan)
	sites := []string{"shard:http://a:1", "fetch:http://b:1", "manifest:http://c:1", "fill:http://a:1"}
	for round := 0; round < 5; round++ {
		for _, s := range sites {
			if a.Fire(fault.Peer, s) != b.Fire(fault.Peer, s) {
				t.Fatalf("injectors with the same plan disagreed at %s round %d", s, round)
			}
		}
	}
}
