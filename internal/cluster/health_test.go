package cluster

import (
	"context"
	"testing"
)

func testHealth() *Health {
	return newHealth("http://a:1", []string{"http://a:1", "http://b:1", "http://c:1"})
}

// TestHealthStateMachine pins the counted-failure transitions: one
// miss suspects, three consecutive misses condemn, one success heals
// from anywhere, and the counters reset on success.
func TestHealthStateMachine(t *testing.T) {
	h := testHealth()
	peer := "http://b:1"

	if st := h.State(peer); st != MemberLive {
		t.Fatalf("initial state = %s, want live", st)
	}
	tr, changed := h.observe(peer, false)
	if !changed || tr.From != MemberLive || tr.To != MemberSuspect {
		t.Fatalf("first miss: %v changed=%v, want live -> suspect", tr, changed)
	}
	if _, changed := h.observe(peer, false); changed {
		t.Fatal("second miss transitioned; down needs three")
	}
	tr, changed = h.observe(peer, false)
	if !changed || tr.To != MemberDown {
		t.Fatalf("third miss: %v changed=%v, want suspect -> down", tr, changed)
	}
	if !h.Down()[peer] {
		t.Fatal("down set misses the condemned peer")
	}
	if h.Down()["http://c:1"] {
		t.Fatal("down set includes a live peer")
	}
	tr, changed = h.observe(peer, true)
	if !changed || tr.To != MemberLive {
		t.Fatalf("success: %v changed=%v, want down -> live", tr, changed)
	}
	// Healed means fully healed: the next miss starts from scratch.
	if tr, _ := h.observe(peer, false); tr.To != MemberSuspect {
		t.Fatalf("post-heal miss moved to %s, want suspect", tr.To)
	}
}

// TestHealthSuspectIsRoutableButNotFillable pins the asymmetry suspect
// introduces: a suspect peer still owns its ring ranges (not in the
// down set) but no longer receives replica fills (unroutable).
func TestHealthSuspectIsRoutableButNotFillable(t *testing.T) {
	h := testHealth()
	peer := "http://b:1"
	h.observe(peer, false)
	if st := h.State(peer); st != MemberSuspect {
		t.Fatalf("state = %s, want suspect", st)
	}
	if h.Down()[peer] {
		t.Fatal("suspect peer landed in the down set")
	}
	if !h.Unroutable(peer) {
		t.Fatal("suspect peer still counts as fillable")
	}
	live, suspect, down := h.Counts()
	if live != 1 || suspect != 1 || down != 0 {
		t.Fatalf("counts = %d/%d/%d, want 1/1/0", live, suspect, down)
	}
}

// TestHealthSelfAndUnknown pins the edges: a node never tracks itself,
// and peers outside the membership read as live without entering the
// view.
func TestHealthSelfAndUnknown(t *testing.T) {
	h := testHealth()
	if st := h.State("http://a:1"); st != MemberLive {
		t.Fatalf("self state = %s", st)
	}
	if _, changed := h.observe("http://zzz:9", false); changed {
		t.Fatal("observing an unknown peer changed the view")
	}
	if st := h.State("http://zzz:9"); st != MemberLive {
		t.Fatalf("unknown peer state = %s", st)
	}
	if len(h.snapshot()) != 2 {
		t.Fatalf("snapshot has %d entries, want the 2 peers", len(h.snapshot()))
	}
}

// TestProbeOnceTransitions drives the prober against a real cluster:
// probe outcomes move the membership view, and the transitions come
// back in deterministic (sorted-peer) order.
func TestProbeOnceTransitions(t *testing.T) {
	tc := newTestCluster(t, 3, nil)
	ctx := context.Background()

	if trs := tc.nodes[0].ProbeOnce(ctx); len(trs) != 0 {
		t.Fatalf("probing a healthy cluster transitioned %v", trs)
	}
	tc.kill(1)
	trs := tc.nodes[0].ProbeOnce(ctx)
	if len(trs) != 1 || trs[0].Peer != tc.urls[1] || trs[0].To != MemberSuspect {
		t.Fatalf("first failed probe round: %v, want %s suspect", trs, tc.urls[1])
	}
	tc.nodes[0].ProbeOnce(ctx)
	trs = tc.nodes[0].ProbeOnce(ctx)
	if len(trs) != 1 || trs[0].To != MemberDown {
		t.Fatalf("third failed probe round: %v, want down", trs)
	}
	if got := tc.nodes[0].mProbes.Value(); got != 8 {
		t.Fatalf("probe counter = %d, want 8 (4 rounds x 2 peers)", got)
	}
	if got := tc.nodes[0].mProbeFails.Value(); got != 3 {
		t.Fatalf("probe failure counter = %d, want 3", got)
	}

	tc.restart(1)
	trs = tc.nodes[0].ProbeOnce(ctx)
	if len(trs) != 1 || trs[0].From != MemberDown || trs[0].To != MemberLive {
		t.Fatalf("post-restart probe round: %v, want down -> live", trs)
	}
}

// TestHealthSummaryLine pins the /healthz one-liner an operator greps
// during an incident: one cached key whose replica set includes the
// down peer reads as unreplicated=1.
func TestHealthSummaryLine(t *testing.T) {
	tc := newTestCluster(t, 3, func(i int, o *Options) { o.Replicas = 2 })
	ctx := context.Background()
	healthy := "replicas=2 live=3 suspect=0 down=0 unreplicated=0"
	if got := tc.nodes[0].HealthSummary(); got != healthy {
		t.Fatalf("healthy HealthSummary() = %q, want %q", got, healthy)
	}
	tc.kill(2)
	for i := 0; i < 3; i++ {
		tc.nodes[0].ProbeOnce(ctx)
	}
	tc.engines[0].Cache().Put(tc.keyReplicatedOn(tc.urls[2], true), tierResults())

	want := "replicas=2 live=2 suspect=0 down=1 unreplicated=1"
	if got := tc.nodes[0].HealthSummary(); got != want {
		t.Fatalf("HealthSummary() = %q, want %q", got, want)
	}
}
