package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"testing"
)

// ownerIndex maps a ring member URL back to its testCluster index.
func (tc *testCluster) ownerIndex(t *testing.T, url string) int {
	t.Helper()
	for i, u := range tc.urls {
		if u == url {
			return i
		}
	}
	t.Fatalf("url %q not in cluster", url)
	return -1
}

// jobKeys returns the standard test grid's content-addressed keys.
func jobKeys() []string {
	g := testGrid()
	jobs := g.Jobs()
	keys := make([]string, len(jobs))
	for i := range jobs {
		keys[i] = jobs[i].Key()
	}
	return keys
}

// owedTo returns the keys whose R=2 replica set includes url.
func (tc *testCluster) owedTo(keys []string, url string) map[string]bool {
	owed := make(map[string]bool)
	for _, key := range keys {
		for _, owner := range tc.nodes[0].Ring().Owners(key, 2, nil) {
			if owner == url {
				owed[key] = true
			}
		}
	}
	return owed
}

// keyReplicatedOn returns the first synthetic result key whose R=2
// replica set includes url (on) or excludes it (!on).
func (tc *testCluster) keyReplicatedOn(url string, on bool) string {
	for i := 0; ; i++ {
		key := fmt.Sprintf("%016x", i)
		if tc.owedTo([]string{key}, url)[key] == on {
			return key
		}
	}
}

// assertReplicated fails unless every key is cached on every member of
// its replica set.
func assertReplicated(t *testing.T, tc *testCluster, keys []string, replicas int) {
	t.Helper()
	for _, key := range keys {
		for _, owner := range tc.nodes[0].Ring().Owners(key, replicas, nil) {
			oi := tc.ownerIndex(t, owner)
			if _, ok := tc.engines[oi].Cache().Get(key); !ok {
				t.Fatalf("key %s missing from replica %d (set %v)",
					shortKey(key), oi, tc.nodes[0].Ring().Owners(key, replicas, nil))
			}
		}
	}
}

// TestClusterReplicationSurvivesKill is the kill-owner chaos tentpole:
// with -replicas 2, a warm cluster loses any single peer and a
// follow-up sweep still produces byte-identical output with ZERO
// recomputation — every job that would have landed on the dead peer is
// served from a surviving replica's cache.
func TestClusterReplicationSurvivesKill(t *testing.T) {
	ref := singleNodeFlatten(t)
	tc := newTestCluster(t, 3, func(i int, o *Options) { o.Replicas = 2 })

	keys := jobKeys()
	out := tc.sweep(t, 0)
	if got := mustFlatten(t, out); !bytes.Equal(got, ref) {
		t.Fatal("warm sweep diverged from the single-node run")
	}
	warm := executedTotal(tc)
	if warm != uint64(len(keys)) {
		t.Fatalf("warm sweep executed %d jobs, want %d", warm, len(keys))
	}
	// The warm sweep fanned every result out to its full replica set.
	assertReplicated(t, tc, keys, 2)

	// Kill each non-coordinator in turn: the re-sweep must stay
	// byte-identical AND compute nothing — the dead peer's shard
	// reroutes to its ring successor, which already holds the replica.
	for _, victim := range []int{1, 2} {
		tc.kill(victim)
		out := tc.sweep(t, 0)
		if got := mustFlatten(t, out); !bytes.Equal(got, ref) {
			t.Fatalf("sweep with node %d dead diverged", victim)
		}
		if n := executedTotal(tc); n != warm {
			t.Fatalf("sweep with node %d dead recomputed %d jobs; replicas should have served all of them",
				victim, n-warm)
		}
		tc.restart(victim)
	}
}

// TestClusterReconcileOnReturn walks the full outage lifecycle: the
// prober condemns a killed peer (live → suspect → down), sweeps route
// around it from the first dispatch, replica fills skip it, every
// survivor reports exactly the cached keys owed to it as unreplicated,
// and its return (down → live) reconciles it — restoring full
// replication without the peer recomputing anything.
func TestClusterReconcileOnReturn(t *testing.T) {
	ref := singleNodeFlatten(t)
	tc := newTestCluster(t, 3, func(i int, o *Options) { o.Replicas = 2 })
	ctx := context.Background()
	keys := jobKeys()

	if got := mustFlatten(t, tc.sweep(t, 0)); !bytes.Equal(got, ref) {
		t.Fatal("warm sweep diverged")
	}
	warm := executedTotal(tc)
	deadExecuted := tc.engines[2].Executed()

	tc.kill(2)
	// Three failed probe rounds condemn the peer on both survivors:
	// live → suspect on the first miss, down on the third.
	for round := 0; round < 3; round++ {
		for _, i := range []int{0, 1} {
			tc.nodes[i].ProbeOnce(ctx)
		}
	}
	for _, i := range []int{0, 1} {
		if st := tc.nodes[i].health.State(tc.urls[2]); st != MemberDown {
			t.Fatalf("node %d sees the killed peer as %s after 3 failed probes, want down", i, st)
		}
	}

	// The detector seeded the sweep's down-set, so the dead peer never
	// gets a doomed dispatch (no reroute), and replica fills skip it
	// instead of waiting on its socket.
	rerouted := tc.nodes[0].mRerouted.Value()
	if got := mustFlatten(t, tc.sweep(t, 0)); !bytes.Equal(got, ref) {
		t.Fatal("sweep with a condemned peer diverged")
	}
	if executedTotal(tc) != warm {
		t.Fatal("sweep with a condemned peer recomputed cached jobs")
	}
	if tc.nodes[0].mRerouted.Value() != rerouted {
		t.Fatal("coordinator dispatched a shard to a peer the detector had already condemned")
	}

	// Every cached key whose replica set includes the dead peer is owed
	// a copy; each survivor must report exactly those. The coordinator
	// caches the whole sweep, so it owes every such key.
	owed := tc.owedTo(keys, tc.urls[2])
	for _, i := range []int{0, 1} {
		want := 0
		for _, key := range tc.engines[i].Cache().Keys() {
			if owed[key] {
				want++
			}
		}
		if i == 0 && want != len(owed) {
			t.Fatalf("coordinator caches %d of the %d owed keys", want, len(owed))
		}
		if got := tc.nodes[i].unreplicated(); got != want {
			t.Fatalf("node %d reports %d unreplicated keys, want the %d it caches that are owed", i, got, want)
		}
	}

	// The peer returns: the first successful probe flips it back to
	// live and reconciles it. It kept its cache across the bounce, so
	// the manifest diff finds nothing to send.
	tc.restart(2)
	for _, i := range []int{0, 1} {
		trs := tc.nodes[i].ProbeOnce(ctx)
		for _, tr := range trs {
			if tr.Peer == tc.urls[2] && tr.To != MemberLive {
				t.Fatalf("node %d transitioned the restarted peer to %s", i, tr.To)
			}
		}
	}
	for _, i := range []int{0, 1} {
		if n := tc.nodes[i].unreplicated(); n != 0 {
			t.Fatalf("node %d still reports %d unreplicated keys after the peer returned", i, n)
		}
		if n := tc.nodes[i].mHintsDrained.Value(); n != 0 {
			t.Fatalf("node %d pushed %d copies to a peer that kept its cache", i, n)
		}
	}
	// Replication is whole again by copying, not recomputing.
	if tc.engines[2].Executed() != deadExecuted {
		t.Fatal("restarted peer recomputed results")
	}
	assertReplicated(t, tc, keys, 2)
}

// TestClusterDrainRefillsWipedPeer pins the case a log of outage-time
// fills could not cover: a warm node dies and its slot returns as a
// fresh process with an empty cache. One probe round on the survivors
// reconciles it from their caches — every key back on its full replica
// set, and the fresh node computes nothing.
func TestClusterDrainRefillsWipedPeer(t *testing.T) {
	ref := singleNodeFlatten(t)
	tc := newTestCluster(t, 3, func(i int, o *Options) { o.Replicas = 2 })
	ctx := context.Background()
	keys := jobKeys()

	if got := mustFlatten(t, tc.sweep(t, 0)); !bytes.Equal(got, ref) {
		t.Fatal("warm sweep diverged")
	}
	assertReplicated(t, tc, keys, 2)

	tc.kill(2)
	for round := 0; round < 3; round++ {
		for _, i := range []int{0, 1} {
			tc.nodes[i].ProbeOnce(ctx)
		}
	}
	tc.spawn(t, 2)
	if n := len(tc.engines[2].Cache().Keys()); n != 0 {
		t.Fatalf("replacement node starts with %d cached keys", n)
	}

	for _, i := range []int{0, 1} {
		trs := tc.nodes[i].ProbeOnce(ctx)
		if len(trs) != 1 || trs[0].Peer != tc.urls[2] || trs[0].To != MemberLive {
			t.Fatalf("node %d probe round after replacement: %v, want %s live", i, trs, tc.urls[2])
		}
	}
	assertReplicated(t, tc, keys, 2)
	if n := tc.engines[2].Executed(); n != 0 {
		t.Fatalf("replacement node executed %d jobs; the reconcile should have copied them", n)
	}
	drained := tc.nodes[0].mHintsDrained.Value() + tc.nodes[1].mHintsDrained.Value()
	if owed := len(tc.owedTo(keys, tc.urls[2])); drained != uint64(owed) {
		t.Fatalf("survivors pushed %d copies, want exactly the %d owed", drained, owed)
	}
}

// TestClusterStatusReplicationFields pins the status-document surface:
// replication factor, per-peer health view and the under-replication
// count an operator watches during an incident — one cached key whose
// replica set includes the down peer, beside one whose set does not.
func TestClusterStatusReplicationFields(t *testing.T) {
	tc := newTestCluster(t, 3, func(i int, o *Options) { o.Replicas = 2 })
	ctx := context.Background()

	tc.kill(2)
	for round := 0; round < 3; round++ {
		tc.nodes[0].ProbeOnce(ctx)
	}
	tc.engines[0].Cache().Put(tc.keyReplicatedOn(tc.urls[2], true), tierResults())
	tc.engines[0].Cache().Put(tc.keyReplicatedOn(tc.urls[2], false), tierResults())

	resp, err := http.Get(tc.urls[0] + "/v1/cluster/status")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	var doc StatusDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc.Replicas != 2 {
		t.Fatalf("status replicas = %d, want 2", doc.Replicas)
	}
	if doc.Unreplicated != 1 {
		t.Fatalf("status unreplicated = %d, want 1", doc.Unreplicated)
	}
	states := make(map[string]string)
	for _, h := range doc.Health {
		states[h.Peer] = h.State
	}
	if states[tc.urls[2]] != "down" || states[tc.urls[1]] != "live" {
		t.Fatalf("status health = %v", states)
	}
	if doc.ProbeFailures == 0 {
		t.Fatal("status reports zero probe failures after a condemned peer")
	}
}
