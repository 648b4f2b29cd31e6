package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"testing"

	"catch/internal/fault"
)

// partitionInjector builds a seeded injector whose Peer rule severs
// exactly the calls whose fault site contains match ("" severs every
// peer call). Each node needs its own injector: the Times budget is
// per-injector state.
func partitionInjector(seed uint64, match string) *fault.Injector {
	return fault.NewInjector(fault.Plan{
		Seed: seed,
		Rules: map[fault.Kind]fault.Rule{
			fault.Peer: {Prob: 1, Times: 1 << 20, Match: match},
		},
	})
}

// TestClusterPartitionTolerance is the split-brain chaos tentpole: a
// 3-node cluster with -replicas 2 partitions into {0,1} | {2} under a
// seeded deterministic fault schedule. Both sides keep serving sweeps
// — byte-identical to the single-node run — with the minority side
// computing locally and marking everything unreplicated. On heal, the
// reconciles run by the first probe round converge every key onto its
// full replica set with zero further compute, leaving an anti-entropy
// pass nothing to do.
func TestClusterPartitionTolerance(t *testing.T) {
	ref := singleNodeFlatten(t)
	tc := newTestCluster(t, 3, func(i int, o *Options) { o.Replicas = 2 })
	ctx := context.Background()
	keys := jobKeys()

	// Impose the partition: nodes 0 and 1 lose only their links to
	// node 2 (the Match filter selects sites by the embedded peer URL);
	// node 2 loses every outbound link.
	tc.nodes[0].client.SetFault(partitionInjector(1, tc.urls[2]))
	tc.nodes[1].client.SetFault(partitionInjector(2, tc.urls[2]))
	tc.nodes[2].client.SetFault(partitionInjector(3, ""))

	// Both sides' detectors condemn the unreachable members.
	for round := 0; round < 3; round++ {
		for i := range tc.nodes {
			tc.nodes[i].ProbeOnce(ctx)
		}
	}
	if st := tc.nodes[0].health.State(tc.urls[2]); st != MemberDown {
		t.Fatalf("majority sees the minority as %s, want down", st)
	}
	for _, u := range []string{tc.urls[0], tc.urls[1]} {
		if st := tc.nodes[2].health.State(u); st != MemberDown {
			t.Fatalf("minority sees %s as %s, want down", u, st)
		}
	}

	// Majority sweep: shards spread over {0,1}, replica fills owed to
	// node 2 skip it.
	if got := mustFlatten(t, tc.sweep(t, 0)); !bytes.Equal(got, ref) {
		t.Fatal("majority-side sweep diverged during the partition")
	}
	majorityExecuted := tc.engines[0].Executed() + tc.engines[1].Executed()
	if majorityExecuted != uint64(len(keys)) {
		t.Fatalf("majority executed %d jobs, want %d", majorityExecuted, len(keys))
	}
	if n := tc.engines[2].Executed(); n != 0 {
		t.Fatalf("minority executed %d majority jobs through the partition", n)
	}

	// Minority sweep: every job computes locally — degraded, never
	// unavailable — and every key is below its replication factor.
	if got := mustFlatten(t, tc.sweep(t, 2)); !bytes.Equal(got, ref) {
		t.Fatal("minority-side sweep diverged during the partition")
	}
	if n := tc.engines[2].Executed(); n != uint64(len(keys)) {
		t.Fatalf("minority executed %d jobs, want all %d locally", n, len(keys))
	}
	if n := tc.nodes[2].unreplicated(); n != len(keys) {
		t.Fatalf("minority marks %d keys unreplicated, want all %d (R=2 means every key has a remote owner)",
			n, len(keys))
	}

	// The operator-facing view of the degradation.
	resp, err := http.Get(tc.urls[2] + "/v1/cluster/status")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	var doc StatusDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc.Unreplicated != len(keys) {
		t.Fatalf("minority status unreplicated = %d, want %d", doc.Unreplicated, len(keys))
	}
	downCount := 0
	for _, h := range doc.Health {
		if h.State == "down" {
			downCount++
		}
	}
	if downCount != 2 {
		t.Fatalf("minority status shows %d peers down, want 2", downCount)
	}

	// Both sides swept the same grid, so the sweeps alone leave no key
	// short of a replica. A result only the minority holds, owed to
	// both majority nodes, is the gap the heal round must close.
	orphan := tc.keyReplicatedOn(tc.urls[2], false)
	tc.engines[2].Cache().Put(orphan, tierResults())

	// Heal the partition and let the detectors notice: every down→live
	// transition reconciles the returning peer. That one probe round
	// must restore every key to its full replica set, by copying.
	totalExecuted := executedTotal(tc)
	for i := range tc.nodes {
		tc.nodes[i].client.SetFault(nil)
	}
	for i := range tc.nodes {
		tc.nodes[i].ProbeOnce(ctx)
	}
	assertReplicated(t, tc, append(keys, orphan), 2)
	for i := range tc.nodes {
		if n := tc.nodes[i].unreplicated(); n != 0 {
			t.Fatalf("node %d still reports %d unreplicated keys after heal", i, n)
		}
	}
	if executedTotal(tc) != totalExecuted {
		t.Fatal("reconciliation recomputed results instead of copying them")
	}

	// An anti-entropy pass after the heal round finds nothing to do.
	for i := range tc.nodes {
		fills, err := tc.nodes[i].RepairOnce(ctx)
		if err != nil {
			t.Fatalf("repair on node %d: %v", i, err)
		}
		if fills != 0 {
			t.Fatalf("repair on node %d pushed %d fills after the heal round", i, fills)
		}
	}

	// A post-heal sweep from either side serves from cache, identical.
	if got := mustFlatten(t, tc.sweep(t, 1)); !bytes.Equal(got, ref) {
		t.Fatal("post-heal sweep diverged")
	}
	if executedTotal(tc) != totalExecuted {
		t.Fatal("post-heal sweep recomputed cached results")
	}
}
