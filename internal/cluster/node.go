package cluster

import (
	"context"
	"fmt"
	"sort"
	"time"

	"catch/internal/core"
	"catch/internal/fault"
	"catch/internal/runner"
	"catch/internal/telemetry"
)

// Options configures a Node.
type Options struct {
	// Self is this node's advertised base URL (must appear in Peers).
	Self string
	// Peers is the static cluster membership: every node's base URL,
	// including Self. A single-element list is a cluster of one.
	Peers []string
	// VNodes is the virtual-node count per peer (<=0: DefaultVNodes).
	VNodes int
	// Engine executes local jobs (compute tier) and owns the local
	// cache whose memory and disk layers become the top two tiers.
	Engine *runner.Engine
	// LentDeadline is ignored. It stays only so the benchmark module,
	// which still sets it, compiles.
	LentDeadline time.Duration
	// BreakerThreshold/BreakerCooldown parameterize the per-tier
	// breakers (non-positive: fault.NewBreaker defaults).
	BreakerThreshold int
	BreakerCooldown  int
	// Replicas is how many cluster members hold each completed result
	// (<=1: owner only, the historical behavior). Capped at the
	// cluster size. With R > 1, every OK result fans out to the key's
	// first R distinct ring successors, the peer tier walks that set
	// on lookup, and copies a suspect or down member misses reach it
	// by reconcile when it returns.
	Replicas int
	// ProbeInterval paces the background failure detector; <=0
	// disables background probing (ProbeOnce still works). Rounds are
	// jittered into [50%,100%] of the interval, seeded by Seed.
	ProbeInterval time.Duration
	// RepairInterval paces the background anti-entropy pass; <=0
	// disables it (RepairOnce still works).
	RepairInterval time.Duration
	// Seed drives the probe/repair pacing jitter.
	Seed uint64
	// Timeouts bounds each peer-call kind.
	Timeouts OpTimeouts
	// Fault injects deterministic peer-call failures (chaos only).
	Fault *fault.Injector
	// Metrics, when non-nil, receives the cluster series.
	Metrics *telemetry.Registry
	// Logf receives rare diagnostics; nil discards them.
	Logf func(format string, args ...any)
}

// Node is one cluster member: the ring, the tiered read path over the
// local cache and the replica peers, the failure detector, and the
// shard executor. It is constructed once per process and shared by the
// HTTP layer.
type Node struct {
	opts   Options
	ring   *Ring
	client *Client
	tiers  *Tiered
	health *Health

	mShardsIn     *telemetry.Counter
	mRerouted     *telemetry.Counter
	mProbes       *telemetry.Counter
	mProbeFails   *telemetry.Counter
	mReplicaFills *telemetry.Counter
	mReplicasIn   *telemetry.Counter
	mHintsDrained *telemetry.Counter
	mRepairFills  *telemetry.Counter
}

// NewNode builds a node. The engine must have a cache: the cluster's
// whole point is a shared content-addressed result space.
func NewNode(o Options) (*Node, error) {
	if o.Engine == nil || o.Engine.Cache() == nil {
		return nil, fmt.Errorf("cluster: node needs an engine with a result cache")
	}
	if o.Self == "" {
		return nil, fmt.Errorf("cluster: node needs -self, its advertised base URL")
	}
	ring := NewRing(o.Peers, o.VNodes)
	found := false
	for _, m := range ring.Members() {
		if m == o.Self {
			found = true
			break
		}
	}
	if !found {
		return nil, fmt.Errorf("cluster: self %q is not in the peer list %v", o.Self, ring.Members())
	}
	if o.Replicas <= 0 {
		o.Replicas = 1
	}
	if members := len(ring.Members()); o.Replicas > members {
		o.Replicas = members
	}
	n := &Node{
		opts: o,
		ring: ring,
		client: NewClient(ClientOptions{
			Fault:            o.Fault,
			Timeouts:         o.Timeouts,
			BreakerThreshold: o.BreakerThreshold,
			BreakerCooldown:  o.BreakerCooldown,
			Metrics:          o.Metrics,
		}),
		health: newHealth(o.Self, ring.Members()),
	}
	cache := o.Engine.Cache()
	newBreaker := func(name string) *fault.Breaker {
		// Local tiers ride the cache's own disk breaker; only the peer
		// tier gets a tier-level breaker here (peer calls already feed
		// per-peer breakers too, so the tier breaker is the aggregate
		// "remote fetches are not helping" switch).
		if name != "peer" {
			return nil
		}
		return fault.NewBreaker(o.BreakerThreshold, o.BreakerCooldown)
	}
	n.tiers = NewTiered([]Tier{
		memTier{c: cache},
		diskTier{c: cache},
		&peerTier{node: n},
	}, newBreaker, o.Metrics)
	if r := o.Metrics; r != nil {
		n.mShardsIn = r.Counter("catch_cluster_shards_total", "Shard requests served for sweep coordinators.")
		n.mRerouted = r.Counter("catch_cluster_reroutes_total", "Shards rerouted after a peer failure (ring exclusion).")
		n.mProbes = r.Counter("catch_cluster_probes_total", "Health probes sent to peers.")
		n.mProbeFails = r.Counter("catch_cluster_probe_failures_total", "Health probes that failed.")
		n.mReplicaFills = r.Counter("catch_cluster_replica_fills_total", "Replica copies pushed to peers.")
		n.mReplicasIn = r.Counter("catch_cluster_replicas_in_total", "Replica copies accepted from peers.")
		n.mHintsDrained = r.Counter("catch_cluster_hints_drained_total", "Replica copies pushed to a peer on its return to live.")
		n.mRepairFills = r.Counter("catch_cluster_repair_fills_total", "Replica copies pushed by anti-entropy repair.")
		r.GaugeFunc("catch_cluster_peers", "Static cluster size.",
			func() float64 { return float64(len(ring.Members())) })
		r.GaugeFunc("catch_cluster_unreplicated_keys", "Cached result keys whose replica set includes a suspect or down peer.",
			func() float64 { return float64(n.unreplicated()) })
		r.GaugeFunc("catch_cluster_peers_down", "Peers the failure detector currently condemns.",
			func() float64 { _, _, down := n.health.Counts(); return float64(down) })
	}
	// Counters that feed /v1/cluster/status must count even without a
	// metrics registry; standalone handles cost one atomic each.
	for _, c := range []**telemetry.Counter{
		&n.mShardsIn, &n.mRerouted, &n.mProbes, &n.mProbeFails,
		&n.mReplicaFills, &n.mReplicasIn, &n.mHintsDrained, &n.mRepairFills,
	} {
		if *c == nil {
			*c = &telemetry.Counter{}
		}
	}
	return n, nil
}

// Ring exposes the node's ring (status endpoint, tests).
func (n *Node) Ring() *Ring { return n.ring }

// Self returns this node's advertised URL.
func (n *Node) Self() string { return n.opts.Self }

// Tiers exposes the tiered read path.
func (n *Node) Tiers() *Tiered { return n.tiers }

// Health exposes the failure detector's membership view.
func (n *Node) Health() *Health { return n.health }

// Replicas reports the effective replication factor.
func (n *Node) Replicas() int { return n.opts.Replicas }

// HealthSummary renders the one-line cluster view surfaced in
// /healthz: member disposition counts (self counts as live — a node
// answering /healthz is up by construction) and the backlog of
// under-replicated results.
func (n *Node) HealthSummary() string {
	live, suspect, down := n.health.Counts()
	return fmt.Sprintf("replicas=%d live=%d suspect=%d down=%d unreplicated=%d",
		n.opts.Replicas, live+1, suspect, down, n.unreplicated())
}

// unreplicated counts the locally cached keys whose replica set
// includes a suspect or down member: results this node serves
// correctly that currently live below their replication factor (the
// number a minority partition watches fall to zero after heal). While
// every peer is live it is zero without listing the cache.
func (n *Node) unreplicated() int {
	if _, suspect, down := n.health.Counts(); n.opts.Replicas <= 1 || suspect+down == 0 {
		return 0
	}
	count := 0
	for _, key := range n.opts.Engine.Cache().Keys() {
		for _, owner := range n.ring.Owners(key, n.opts.Replicas, nil) {
			if n.health.Unroutable(owner) {
				count++
				break
			}
		}
	}
	return count
}

// peerTier is the third cache level: fetch the result from the key's
// replica set, primary owner first, then each successor. Down peers
// are excluded before the walk; a key whose whole remote replica set
// misses (or is this node) is a structural miss.
type peerTier struct{ node *Node }

func (p *peerTier) Name() string              { return "peer" }
func (p *peerTier) Local() bool               { return false }
func (p *peerTier) Put(string, []core.Result) {}

func (p *peerTier) Get(ctx context.Context, key string) ([]core.Result, error) {
	n := p.node
	var lastErr error
	for _, owner := range n.ring.Owners(key, n.opts.Replicas, n.health.Down()) {
		if owner == n.opts.Self {
			continue // local tiers already missed; no better copy here
		}
		rs, found, err := n.client.FetchResult(ctx, owner, key)
		if err != nil {
			lastErr = err // a dead primary must not mask a live replica
			continue
		}
		if found {
			return rs, nil
		}
	}
	return nil, lastErr
}

// Lookup resolves key through the tiered read path without computing:
// local memory, local disk, then (unless localOnly) the owner peer.
// The serving tier's name is returned for observability.
func (n *Node) Lookup(ctx context.Context, key string, localOnly bool) ([]core.Result, string, bool) {
	return n.tiers.Get(ctx, key, localOnly)
}

// ExecuteShard runs one shard of a sweep through the engine's worker
// pool, which lands each completed job in the engine's cache, and fans
// every OK result out to its replica set. The results are in job
// order, so a coordinator can splice shards back together
// deterministically. Overlapping shards share the engine's cache, which
// runs a key wanted by both only once.
func (n *Node) ExecuteShard(ctx context.Context, jobs []runner.Job) []runner.JobResult {
	out := n.opts.Engine.Run(ctx, jobs)
	// Replication is idempotent (content-addressed keys), so re-pushing
	// a cache hit costs one small call and repairs any gap a past
	// failure left.
	if n.opts.Replicas > 1 {
		for i := range out {
			if out[i].Status == runner.StatusOK {
				n.replicate(ctx, out[i].Key, out[i].Results)
			}
		}
	}
	return out
}

// replicate pushes one completed result to every other member of its
// replica set. A member that is unroutable (suspect or down) is
// skipped, and a failed fill is only logged: the copy is owed, and
// the reconcile on the member's return (or the next repair pass)
// delivers it from the local cache. The local node keeps serving the
// result meanwhile, so a minority partition degrades to "computed but
// unreplicated", never to "lost".
func (n *Node) replicate(ctx context.Context, key string, rs []core.Result) {
	for _, owner := range n.ring.Owners(key, n.opts.Replicas, nil) {
		if owner == n.opts.Self || n.health.Unroutable(owner) {
			continue
		}
		if err := n.client.ReplicaFill(ctx, owner, key, rs); err != nil {
			n.logf("cluster: replica fill %s to %s failed (%v); left to reconcile", shortKey(key), owner, err)
			continue
		}
		n.mReplicaFills.Inc()
	}
}

// HandleFill stores a replica copy a peer pushed. It never fans the
// copy out again: every fill is already part of some node's fan-out,
// and a receiver that re-fanned would loop copies around the ring.
func (n *Node) HandleFill(key string, rs []core.Result) error {
	if !runner.ValidKey(key) || len(rs) == 0 {
		return fmt.Errorf("cluster: fill needs a valid key and non-empty results")
	}
	n.mReplicasIn.Inc()
	n.opts.Engine.Cache().Put(key, rs)
	return nil
}

// Start launches the background loops — health probing and
// anti-entropy repair — for whichever intervals are set. It returns
// immediately; every loop ends with ctx.
func (n *Node) Start(ctx context.Context) {
	if n.opts.ProbeInterval > 0 {
		go n.paceLoop(ctx, "probe", n.opts.ProbeInterval, func() {
			n.ProbeOnce(ctx)
		})
	}
	if n.opts.RepairInterval > 0 && n.opts.Replicas > 1 {
		go n.paceLoop(ctx, "repair", n.opts.RepairInterval, func() {
			if _, err := n.RepairOnce(ctx); err != nil {
				n.logf("cluster: repair: %v", err)
			}
		})
	}
}

// paceLoop runs step roughly every interval, each round jittered into
// [50%,100%] of the interval by the seeded Backoff hash — the same
// jitter discipline as retry pacing, so a fleet started together never
// probes (or repairs) in lockstep, and the schedule is a pure function
// of the seed.
func (n *Node) paceLoop(ctx context.Context, name string, interval time.Duration, step func()) {
	bo := fault.Backoff{Base: interval, Max: interval, Seed: n.opts.Seed}
	for round := 1; ; round++ {
		t := time.NewTimer(bo.Delay(fmt.Sprintf("%s:%d", name, round), 1))
		select {
		case <-ctx.Done():
			t.Stop()
			return
		case <-t.C:
		}
		step()
	}
}

// RunSweep coordinates a sweep across the cluster: jobs group by ring
// owner, each peer shard is dispatched in parallel, and a failed peer
// is excluded from the ring for the rest of the sweep — its jobs
// reroute (next live owner, ultimately self) until every job has a
// result. The output is in job order, so Flatten is byte-identical to
// a single-node run. The third argument is ignored; it stays only so
// existing callers compile.
func (n *Node) RunSweep(ctx context.Context, jobs []runner.Job, _ any) []runner.JobResult {
	out := make([]runner.JobResult, len(jobs))
	remaining := make([]int, len(jobs))
	for i := range jobs {
		remaining[i] = i
	}
	// Seed the exclusion set from the failure detector: peers already
	// condemned never get a first (doomed) dispatch. Sweep-local
	// failures still add to the set as they happen.
	down := n.health.Down()

	for len(remaining) > 0 {
		if ctx.Err() != nil {
			for _, i := range remaining {
				out[i] = runner.JobResult{Job: jobs[i], Key: jobs[i].Key(), Err: ctx.Err().Error(), Status: runner.StatusCanceled}
			}
			return out
		}
		// Group the remaining jobs by live owner, keeping job order
		// within each group. Owners iterate in sorted order so the
		// dispatch schedule is deterministic.
		groups := make(map[string][]int)
		var owners []string
		for _, i := range remaining {
			owner := n.ring.Owner(jobs[i].Key(), down)
			if owner == "" {
				owner = n.opts.Self
			}
			if _, ok := groups[owner]; !ok {
				owners = append(owners, owner)
			}
			groups[owner] = append(groups[owner], i)
		}
		sort.Strings(owners)

		type shardOut struct {
			owner   string
			idxs    []int
			results []runner.JobResult
			err     error
		}
		ch := make(chan shardOut, len(owners))
		for _, owner := range owners {
			idxs := groups[owner]
			if owner == n.opts.Self {
				go func() {
					shard := make([]runner.Job, len(idxs))
					for k, i := range idxs {
						shard[k] = jobs[i]
					}
					ch <- shardOut{owner: n.opts.Self, idxs: idxs, results: n.ExecuteShard(ctx, shard)}
				}()
				continue
			}
			go func(owner string, idxs []int) {
				shard := make([]runner.Job, len(idxs))
				for k, i := range idxs {
					shard[k] = jobs[i]
				}
				rs, err := n.client.RunShard(ctx, owner, shard, false)
				ch <- shardOut{owner: owner, idxs: idxs, results: rs, err: err}
			}(owner, idxs)
		}

		var next []int
		for range owners {
			so := <-ch
			if so.err != nil {
				// The peer is out for this sweep: exclude it from the
				// ring and reroute its jobs next round.
				n.logf("cluster: shard on %s failed (%v); rerouting %d jobs", so.owner, so.err, len(so.idxs))
				n.mRerouted.Inc()
				down[so.owner] = true
				next = append(next, so.idxs...)
				continue
			}
			for k, i := range so.idxs {
				out[i] = so.results[k]
				if so.owner != n.opts.Self && so.results[k].Status == runner.StatusOK {
					// Remote results also land in the local cache so
					// the results API serves them from tier "mem".
					n.opts.Engine.Cache().Put(so.results[k].Key, so.results[k].Results)
				}
			}
		}
		sort.Ints(next)
		remaining = next
	}
	return out
}

// peerStates reports every ring member with its peer-breaker state
// (status endpoint).
func (n *Node) peerStates() []PeerState {
	members := n.ring.Members()
	out := make([]PeerState, 0, len(members))
	for _, m := range members {
		ps := PeerState{Peer: m, Self: m == n.opts.Self}
		if !ps.Self {
			ps.Breaker = n.client.BreakerState(m).String()
		}
		out = append(out, ps)
	}
	return out
}

func (n *Node) logf(format string, args ...any) {
	if n.opts.Logf != nil {
		n.opts.Logf(format, args...)
	}
}

// shortKey abbreviates a content address for log lines.
func shortKey(key string) string {
	if len(key) > 12 {
		return key[:12]
	}
	return key
}
