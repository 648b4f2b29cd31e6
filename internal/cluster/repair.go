package cluster

import (
	"context"

	"catch/internal/telemetry"
)

// RepairOnce runs one anti-entropy pass: reconcile against every live
// peer. The pass pushes only — each node repairs from what it holds —
// so running it on every member converges the cluster to full
// replication no matter which side of a partition computed what. It
// reports how many fills it pushed.
func (n *Node) RepairOnce(ctx context.Context) (int, error) {
	return n.reconcile(ctx, n.health.peers, n.mRepairFills)
}

// DrainHints reconciles one peer: every locally cached result the peer
// should replicate but lacks is pushed to it. ProbeOnce calls it on
// each transition back to live, so a returning peer is refilled in the
// probe round that sees it — whether it kept its cache or came back
// empty — without waiting for the next repair pass. Returns how many
// fills landed.
func (n *Node) DrainHints(ctx context.Context, peer string) int {
	fills, _ := n.reconcile(ctx, []string{peer}, n.mHintsDrained) // the only error is ctx's own
	return fills
}

// reconcile is the one replica-reconcile routine. It fetches each live
// peer's manifest (the keys it caches) once, then pushes every locally
// cached result whose replica set includes that peer and which the
// manifest lacks, counting each fill on fills. Results are
// content-addressed, which makes it idempotent: re-filling a key a
// peer already holds rewrites identical bytes, and a second reconcile
// after convergence pushes nothing.
//
// Peers that are suspect, down, or fail the manifest fetch are skipped
// (their gaps persist into the next reconcile), as are failed fills
// and keys the cache evicted between listing and read.
func (n *Node) reconcile(ctx context.Context, peers []string, fills *telemetry.Counter) (int, error) {
	if n.opts.Replicas <= 1 {
		return 0, nil
	}
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	keys := n.opts.Engine.Cache().Keys() // sorted: a deterministic push order
	if len(keys) == 0 {
		return 0, nil
	}

	// One manifest fetch per peer, not per key. A peer we cannot
	// manifest is treated as having nothing to reconcile — guessing
	// "it has nothing" would push the whole cache at it.
	manifests := make(map[string]map[string]bool)
	for _, peer := range peers {
		if n.health.State(peer) != MemberLive {
			continue
		}
		peerKeys, err := n.client.Manifest(ctx, peer)
		if err != nil {
			n.logf("cluster: reconcile: manifest from %s failed (%v); skipping it this round", peer, err)
			continue
		}
		set := make(map[string]bool, len(peerKeys))
		for _, k := range peerKeys {
			set[k] = true
		}
		manifests[peer] = set
	}
	if len(manifests) == 0 {
		return 0, nil
	}

	pushed := 0
	for _, key := range keys {
		if err := ctx.Err(); err != nil {
			return pushed, err
		}
		for _, owner := range n.ring.Owners(key, n.opts.Replicas, nil) {
			set, ok := manifests[owner]
			if !ok || set[key] {
				continue
			}
			rs, ok := n.opts.Engine.Cache().Get(key)
			if !ok {
				break // evicted since listing; nothing to push anywhere
			}
			if err := n.client.ReplicaFill(ctx, owner, key, rs); err != nil {
				n.logf("cluster: reconcile: fill %s to %s failed: %v", shortKey(key), owner, err)
				continue
			}
			pushed++
			fills.Inc()
		}
	}
	return pushed, nil
}
