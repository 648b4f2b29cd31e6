package cluster

import (
	"context"
	"fmt"
	"sort"
	"sync"
)

// MemberState is one peer's disposition in the shared membership view.
// The numeric values are exposed as a gauge (/metrics), so they are
// part of the observability contract: 0 healthy, 1 suspected, 2 down.
type MemberState int32

const (
	// MemberLive: the peer answers probes. It receives shards, replica
	// fills and steal traffic.
	MemberLive MemberState = 0
	// MemberSuspect: the peer has missed probes but not enough to
	// condemn it. It is still routable — a suspect peer is usually a
	// slow one, and moving its shards early would churn the ring for
	// nothing — but new replica fills skip it instead of waiting on a
	// possibly-dead socket; the reconcile on its return delivers them.
	MemberSuspect MemberState = 1
	// MemberDown: the peer has missed enough consecutive probes to be
	// excluded: sweeps route around it, the peer tier skips it, and
	// copies owed to it wait for the reconcile on its return.
	MemberDown MemberState = 2
)

func (s MemberState) String() string {
	switch s {
	case MemberLive:
		return "live"
	case MemberSuspect:
		return "suspect"
	case MemberDown:
		return "down"
	}
	return "unknown"
}

// memberHealth is one peer's probe bookkeeping.
type memberHealth struct {
	state  MemberState
	fails  int    // consecutive failed probes
	probes uint64 // lifetime probes sent
}

// Transition is one observed membership change, returned by ProbeOnce
// so callers (and tests) see exactly what the detector decided.
type Transition struct {
	Peer string
	From MemberState
	To   MemberState
}

func (t Transition) String() string {
	return fmt.Sprintf("%s: %s -> %s", t.Peer, t.From, t.To)
}

// Health is the node's shared membership view, driven by the active
// prober and consumed by the sweep coordinator (initial down-set), the
// peer cache tier (replica walk), the steal loop (victim selection),
// the replicator (fill-or-skip decision) and the reconcile routine
// (which peers to diff).
//
// State transitions are counted in consecutive probe outcomes, never
// in wall-clock time — the same idiom as the circuit breaker's
// denied-call cooldown — so a test driving ProbeOnce by hand replays
// the exact live→suspect→down→live schedule every run.
type Health struct {
	self  string
	peers []string // sorted, excluding self

	mu sync.Mutex
	m  map[string]*memberHealth
}

// The probe-miss budgets: one miss makes a peer suspect, three
// consecutive misses condemn it.
const (
	suspectAfter = 1
	downAfter    = 3
)

// newHealth builds the view over the ring members, all initially live.
func newHealth(self string, members []string) *Health {
	h := &Health{self: self, m: make(map[string]*memberHealth)}
	for _, m := range members {
		if m == self {
			continue
		}
		h.peers = append(h.peers, m)
		h.m[m] = &memberHealth{state: MemberLive}
	}
	sort.Strings(h.peers)
	return h
}

// observe feeds one probe outcome into the state machine and reports
// the transition it caused, if any.
func (h *Health) observe(peer string, ok bool) (Transition, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	mh, known := h.m[peer]
	if !known {
		return Transition{}, false
	}
	mh.probes++
	from := mh.state
	if ok {
		mh.fails = 0
		mh.state = MemberLive
	} else {
		mh.fails++
		switch {
		case mh.fails >= downAfter:
			mh.state = MemberDown
		case mh.fails >= suspectAfter:
			mh.state = MemberSuspect
		}
	}
	if mh.state == from {
		return Transition{}, false
	}
	return Transition{Peer: peer, From: from, To: mh.state}, true
}

// State returns a peer's current disposition (self and unknown peers
// read as live: a node never suspects itself).
func (h *Health) State(peer string) MemberState {
	h.mu.Lock()
	defer h.mu.Unlock()
	if mh, ok := h.m[peer]; ok {
		return mh.state
	}
	return MemberLive
}

// Down returns a fresh down-set — the peers currently condemned — in
// the map shape Ring.Owner/Owners consume. Suspect peers are not in
// it: they still own their ranges.
func (h *Health) Down() map[string]bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	down := make(map[string]bool)
	for _, p := range h.peers {
		if h.m[p].state == MemberDown {
			down[p] = true
		}
	}
	return down
}

// Unroutable reports whether new replica fills should skip peer: it
// is suspect or down. The reconcile on its return delivers the copies.
func (h *Health) Unroutable(peer string) bool {
	return h.State(peer) != MemberLive
}

// Counts snapshots the live/suspect/down population for /healthz.
func (h *Health) Counts() (live, suspect, down int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, p := range h.peers {
		switch h.m[p].state {
		case MemberSuspect:
			suspect++
		case MemberDown:
			down++
		default:
			live++
		}
	}
	return live, suspect, down
}

// MemberHealthDoc is one peer's view entry in /v1/cluster/status.
type MemberHealthDoc struct {
	Peer   string `json:"peer"`
	State  string `json:"state"`
	Fails  int    `json:"fails,omitempty"`  // consecutive missed probes
	Probes uint64 `json:"probes,omitempty"` // lifetime probes sent
}

// snapshot renders the view for the status endpoint, sorted by peer.
func (h *Health) snapshot() []MemberHealthDoc {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]MemberHealthDoc, 0, len(h.peers))
	for _, p := range h.peers {
		mh := h.m[p]
		out = append(out, MemberHealthDoc{Peer: p, State: mh.state.String(), Fails: mh.fails, Probes: mh.probes})
	}
	return out
}

// ProbeOnce runs one probe round: every peer is pinged in sorted
// order, the outcomes drive the membership state machine, and every
// peer that just transitioned back to live is reconciled (DrainHints).
// The returned transitions let tests pin the exact schedule; the round
// is deterministic given deterministic probe outcomes (the fault
// injector's Peer kind, a closed test server).
func (n *Node) ProbeOnce(ctx context.Context) []Transition {
	var transitions []Transition
	for _, peer := range n.health.peers {
		err := n.client.Probe(ctx, peer)
		n.mProbes.Inc()
		if err != nil {
			n.mProbeFails.Inc()
		}
		tr, changed := n.health.observe(peer, err == nil)
		if !changed {
			continue
		}
		transitions = append(transitions, tr)
		n.logf("cluster: health: %s", tr)
		if tr.To == MemberLive {
			// The peer is back: push every copy it should hold and
			// lacks, whether owed from its outage or lost with it.
			n.DrainHints(ctx, peer)
		}
	}
	return transitions
}
