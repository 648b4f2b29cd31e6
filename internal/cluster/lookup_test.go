package cluster

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"catch/internal/core"
	"catch/internal/runner"
	"catch/internal/telemetry"
)

// tierResults is a stand-in result list for entries a test places in a
// cache by hand.
func tierResults() []core.Result {
	return []core.Result{{Workload: "mcf", IPC: 1.25}}
}

// TestLookupTierCountersAddUp drives the real Node.Lookup from node 0
// of a three-node loopback cluster (replicas=2, disk caches) over keys
// held in its memory, on its disk only, on a peer only and nowhere,
// then localOnly lookups, then lookups whose primary owner has died.
// On every node each lookup must be counted once at mem, each level's
// hits+misses+errors must equal the lookups that reached it, and each
// level's promotions the hits below it; a localOnly lookup must never
// call a peer. A live replica's clean miss behind a failing primary is
// a peer miss: only a walk on which every peer asked failed is a peer
// error.
func TestLookupTierCountersAddUp(t *testing.T) {
	reg := telemetry.NewRegistry()
	tc := newTestCluster(t, 3, func(i int, o *Options) {
		o.Replicas = 2
		o.Engine = runner.New(runner.Options{Workers: 1, Cache: runner.NewCache(t.TempDir())})
		if i == 0 {
			o.Metrics = reg
		}
	})
	// served[i] counts the results requests node i answered: each is a
	// localOnly Lookup on that node.
	var served [3]atomic.Int64
	for i := range tc.wired {
		h := tc.wired[i]
		tc.wired[i] = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if strings.HasPrefix(r.URL.Path, "/v1/results/") {
				served[i].Add(1)
			}
			h.ServeHTTP(w, r)
		})
		tc.restart(i)
	}
	servedTotal := func() int64 { return served[0].Load() + served[1].Load() + served[2].Load() }

	// key returns a fresh synthetic key whose replica set is exactly
	// nodes (a, b), primary first.
	used := make(map[string]bool)
	key := func(a, b int) string {
		for i := 0; ; i++ {
			k := fmt.Sprintf("%016x", i)
			o := tc.nodes[0].Ring().Owners(k, 2, nil)
			if !used[k] && o[0] == tc.urls[a] && o[1] == tc.urls[b] {
				used[k] = true
				return k
			}
		}
	}
	ctx := context.Background()
	asker := tc.nodes[0]
	direct, localMisses := 0, 0
	look := func(k string, localOnly bool, want string) {
		t.Helper()
		direct++
		rs, tier, ok := asker.Lookup(ctx, k, localOnly)
		if want == "" {
			if ok {
				t.Fatalf("lookup %s (localOnly %v) hit tier %q, want a miss", k, localOnly, tier)
			}
			if localOnly {
				localMisses++
			}
			return
		}
		if !ok || tier != want || len(rs) != 1 {
			t.Fatalf("lookup %s = (%d results, %q, %v), want a %s hit", k, len(rs), tier, ok, want)
		}
	}
	cache := func(node int) *runner.Cache { return tc.engines[node].Cache() }

	for i := 0; i < 2; i++ {
		k := key(1, 2)
		cache(0).PutMem(k, tierResults())
		look(k, false, "mem")
	}
	for i := 0; i < 2; i++ {
		k := key(1, 2)
		cache(0).PutDisk(k, tierResults())
		look(k, false, "disk")
		look(k, false, "mem")
	}
	for i := 0; i < 2; i++ { // on the primary owner only
		k := key(1, 2)
		cache(1).PutMem(k, tierResults())
		look(k, false, "peer")
		look(k, false, "mem")
	}
	onSecondary := key(1, 2) // the primary misses cleanly first
	cache(2).PutMem(onSecondary, tierResults())
	look(onSecondary, false, "peer")
	look(onSecondary, false, "mem")
	for i := 0; i < 2; i++ {
		look(key(1, 2), false, "")
	}

	before := servedTotal()
	for i := 0; i < 2; i++ {
		k := key(1, 2)
		cache(1).PutMem(k, tierResults())
		look(k, true, "")
	}
	if got := servedTotal(); got != before {
		t.Fatalf("localOnly lookups made %d peer calls", got-before)
	}

	tc.kill(2)
	look(key(2, 0), false, "") // the only remote owner fails: error
	look(key(2, 1), false, "") // node 1 misses cleanly behind it: miss
	behind := key(2, 1)
	cache(1).PutMem(behind, tierResults())
	look(behind, false, "peer")

	want := []TierStats{
		{Tier: "mem", Hits: 7, Misses: 12, Promotions: 6},
		{Tier: "disk", Hits: 2, Misses: 10, Promotions: 4},
		{Tier: "peer", Hits: 4, Misses: 3, Errors: 1},
	}
	if got := asker.TierStats(); !slices.Equal(got, want) {
		t.Fatalf("node 0 tier stats\n got %+v\nwant %+v", got, want)
	}

	for i, n := range tc.nodes {
		st := n.TierStats()
		m, d, p := st[0], st[1], st[2]
		lookups := served[i].Load()
		if i == 0 {
			lookups += int64(direct)
		}
		if got := int64(m.Hits + m.Misses + m.Errors); got != lookups {
			t.Errorf("node %d: mem counted %d lookups, want %d", i, got, lookups)
		}
		if got := d.Hits + d.Misses + d.Errors; got != m.Misses {
			t.Errorf("node %d: disk counted %d lookups, want mem's %d misses", i, got, m.Misses)
		}
		reachedPeer := uint64(0) // a node serving a peer looks up localOnly
		if i == 0 {
			reachedPeer = d.Misses - uint64(localMisses)
		}
		if got := p.Hits + p.Misses + p.Errors; got != reachedPeer {
			t.Errorf("node %d: peer counted %d lookups, want %d", i, got, reachedPeer)
		}
		if m.Promotions != d.Hits+p.Hits || d.Promotions != p.Hits || p.Promotions != 0 {
			t.Errorf("node %d: promotions mem %d disk %d peer %d, want %d, %d, 0",
				i, m.Promotions, d.Promotions, p.Promotions, d.Hits+p.Hits, p.Hits)
		}
	}

	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	for _, series := range []string{
		`catch_cluster_tier_requests_total{tier="peer",kind="hit"} 4`,
		`catch_cluster_tier_requests_total{tier="peer",kind="miss"} 3`,
		`catch_cluster_tier_requests_total{tier="peer",kind="error"} 1`,
		`catch_cluster_tier_promotions_total{tier="mem"} 6`,
	} {
		if !strings.Contains(buf.String(), series+"\n") {
			t.Errorf("/metrics lacks %s", series)
		}
	}
}

// ownedBy returns a synthetic key whose single owner (replicas=1) is
// url.
func ownedBy(t *testing.T, n *Node, url string) string {
	t.Helper()
	for i := 0; i < 1<<16; i++ {
		k := fmt.Sprintf("%016x", i)
		if n.Ring().Owners(k, 1, nil)[0] == url {
			return k
		}
	}
	t.Fatalf("no key owned by %s", url)
	return ""
}

// TestTieredPromotesHitsUpward checks that a peer hit lands in both
// local tiers, so the next read of the key stops at memory.
func TestTieredPromotesHitsUpward(t *testing.T) {
	tc := newTestCluster(t, 2, func(i int, o *Options) {
		if i == 0 {
			o.Engine = runner.New(runner.Options{Workers: 1, Cache: runner.NewCache(t.TempDir())})
		}
	})
	asker, cache := tc.nodes[0], tc.engines[0].Cache()
	key := ownedBy(t, asker, tc.urls[1])
	tc.engines[1].Cache().PutMem(key, tierResults())

	rs, tier, ok := asker.Lookup(context.Background(), key, false)
	if !ok || tier != "peer" || len(rs) != 1 {
		t.Fatalf("Lookup = (%d results, %q, %v), want peer hit", len(rs), tier, ok)
	}
	if _, ok := cache.GetMem(key); !ok {
		t.Fatal("peer hit was not promoted into mem")
	}
	if _, ok := cache.GetDisk(key); !ok {
		t.Fatal("peer hit was not promoted into disk")
	}
	if _, tier, _ := asker.Lookup(context.Background(), key, false); tier != "mem" {
		t.Fatalf("second Lookup served from %q, want mem", tier)
	}
	st := asker.TierStats()
	if st[0].Promotions != 1 || st[1].Promotions != 1 || st[2].Hits != 1 {
		t.Fatalf("stats after promotion: %+v", st)
	}
}

// TestTieredLocalOnlySkipsRemote checks that a localOnly lookup misses
// a key held only by its peer owner without calling that peer.
func TestTieredLocalOnlySkipsRemote(t *testing.T) {
	tc := newTestCluster(t, 2, nil)
	var served atomic.Int64
	h := tc.wired[1]
	tc.wired[1] = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/v1/results/") {
			served.Add(1)
		}
		h.ServeHTTP(w, r)
	})
	tc.restart(1)
	asker := tc.nodes[0]
	key := ownedBy(t, asker, tc.urls[1])
	tc.engines[1].Cache().PutMem(key, tierResults())

	if _, _, ok := asker.Lookup(context.Background(), key, true); ok {
		t.Fatal("localOnly lookup reached the remote tier")
	}
	if got := served.Load(); got != 0 {
		t.Fatalf("peer served %d results requests under localOnly", got)
	}
	if p := asker.TierStats()[2]; p.Hits+p.Misses+p.Errors != 0 {
		t.Fatalf("peer tier counted a localOnly lookup: %+v", p)
	}
}

// TestCacheTierAdapters checks the node's two local tiers, the memory
// and disk levels of its runner.Cache: a disk-only entry is served
// from disk and promoted into memory on first read.
func TestCacheTierAdapters(t *testing.T) {
	tc := newTestCluster(t, 1, func(_ int, o *Options) {
		o.Engine = runner.New(runner.Options{Workers: 1, Cache: runner.NewCache(t.TempDir())})
	})
	n := tc.nodes[0]
	key := "feedfacefeedface"
	tc.engines[0].Cache().PutDisk(key, tierResults())

	rs, tier, ok := n.Lookup(context.Background(), key, false)
	if !ok || tier != "disk" || len(rs) != 1 {
		t.Fatalf("Lookup = (%d results, %q, %v), want disk hit", len(rs), tier, ok)
	}
	if _, tier, _ = n.Lookup(context.Background(), key, false); tier != "mem" {
		t.Fatalf("promoted entry served from %q, want mem", tier)
	}
}
