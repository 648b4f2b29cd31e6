// Package cluster turns catchd into a peer cluster: a consistent-hash
// ring routes content-addressed job keys to owner shards, a tiered
// cache read path (local memory → local disk → owner peer → compute)
// absorbs reads, sweeps shard across peers, each shard running on its
// owner's engine, and the results API carries full HTTP cache semantics
// (strong ETags, Cache-Control, conditional revalidation) so standard
// CDNs and proxies can front the cluster.
//
// Every mechanism degrades toward local compute: a dead peer is
// excluded by its circuit breaker, its ring range reroutes to the next
// live member, and a sweep sharded across N peers produces
// byte-identical Flatten output to the single-node run — a simulation
// is a pure function of its job, so where it executes can never change
// what it produces.
package cluster

import (
	"fmt"
	"sort"
)

// DefaultVNodes is the virtual-node count per member: enough points
// that removing one member spreads its range roughly evenly over the
// survivors instead of dumping it on one neighbor.
const DefaultVNodes = 64

// Ring is an immutable consistent-hash ring. Members are hashed onto
// VNodes points each; a key is owned by the member of the first point
// clockwise from the key's hash. Membership is fixed at construction
// (catchd clusters are declared with a static -peers list); transient
// death is handled by exclusion at lookup time, which preserves the
// consistent-hashing property — only the dead member's keys move.
type Ring struct {
	vnodes  int
	members []string // sorted, deduplicated
	points  []point  // sorted by hash
}

// point is one virtual node: a position on the ring and the member it
// maps to.
type point struct {
	hash   uint64
	member string
}

// NewRing builds a ring over members with vnodes virtual nodes per
// member (<=0 means DefaultVNodes). Duplicate members collapse; an
// empty member list yields a ring that owns nothing.
func NewRing(members []string, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	uniq := make([]string, 0, len(members))
	seen := make(map[string]bool, len(members))
	for _, m := range members {
		if m == "" || seen[m] {
			continue
		}
		seen[m] = true
		uniq = append(uniq, m)
	}
	sort.Strings(uniq)
	r := &Ring{vnodes: vnodes, members: uniq}
	r.points = make([]point, 0, len(uniq)*vnodes)
	for _, m := range uniq {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, point{hash: ringHash(fmt.Sprintf("%s#%d", m, v)), member: m})
		}
	}
	// Sort by hash with the member name as tiebreaker, so the ring
	// layout is a pure function of the membership set — never of map
	// order or insertion order.
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].member < r.points[j].member
	})
	return r
}

// Members returns the membership in sorted order.
func (r *Ring) Members() []string { return append([]string(nil), r.members...) }

// VNodes returns the per-member virtual-node count.
func (r *Ring) VNodes() int { return r.vnodes }

// Owner returns the member owning key, walking clockwise from the
// key's hash and skipping members in down (nil means none). When every
// member is down (or the ring is empty) it returns "".
func (r *Ring) Owner(key string, down map[string]bool) string {
	owners := r.Owners(key, 1, down)
	if len(owners) == 0 {
		return ""
	}
	return owners[0]
}

// Owners returns the first n distinct live members clockwise from the
// key's hash: the key's replica set. The first element is the primary
// owner; the rest are the successors a replicated result fans out to,
// in the order a reader should try them. Members in down are skipped,
// which preserves the consistent-hashing property — excluding a member
// changes only the replica sets that contained it, each by exactly one
// member. Fewer than n live members yields a shorter slice; an empty
// ring yields nil.
func (r *Ring) Owners(key string, n int, down map[string]bool) []string {
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	h := ringHash(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	owners := make([]string, 0, n)
	for i := 0; i < len(r.points) && len(owners) < n; i++ {
		p := r.points[(start+i)%len(r.points)]
		if down[p.member] || contains(owners, p.member) {
			continue
		}
		owners = append(owners, p.member)
	}
	return owners
}

// contains reports membership in a small slice (replica sets are a
// handful of entries; a map would cost more than the scan).
func contains(s []string, v string) bool {
	for _, e := range s {
		if e == v {
			return true
		}
	}
	return false
}

// ringHash maps a string onto the ring: FNV-1a finished with the
// splitmix64 mixer, so near-identical member and key names land far
// apart.
func ringHash(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	h ^= h >> 30
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 27
	h *= 0x94D049BB133111EB
	h ^= h >> 31
	return h
}
