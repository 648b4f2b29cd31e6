// Package memo is the machinery under every content-addressed store in
// the repo: Group, a per-key singleflight memo, and Disk, one directory
// of files written atomically through fault.FS and guarded by an
// optional circuit breaker. A store keeps only what is its own — the
// key type, the file-name function, the codec and its counters — and
// gets in-flight coalescing, atomic writes, quarantine of corrupt
// files and degrade-to-memory from here.
package memo

import "sync"

// Outcome reports how Do resolved a key.
type Outcome uint8

const (
	// Filled: this caller ran fill.
	Filled Outcome = iota
	// Hit: the memo already held a value for the key.
	Hit
	// Coalesced: this caller waited on another caller's in-flight fill.
	Coalesced
)

// Group memoizes values by key, running at most one fill per key at a
// time across all callers. Successful fills are kept; errors are
// handed to every caller that waited on that fill and are never kept,
// so the next Do fills again. The zero value is ready to use.
type Group[K comparable, V any] struct {
	mu       sync.Mutex
	done     map[K]V
	inflight map[K]*call[V]
}

type call[V any] struct {
	ch  chan struct{}
	v   V
	err error
}

// Do returns the value for key, calling fill only when no value is
// held and no other caller is filling the key.
func (g *Group[K, V]) Do(key K, fill func() (V, error)) (V, Outcome, error) {
	g.mu.Lock()
	if v, ok := g.done[key]; ok {
		g.mu.Unlock()
		return v, Hit, nil
	}
	if c, ok := g.inflight[key]; ok {
		g.mu.Unlock()
		<-c.ch
		return c.v, Coalesced, c.err
	}
	if g.inflight == nil {
		g.inflight = make(map[K]*call[V])
	}
	c := &call[V]{ch: make(chan struct{})}
	g.inflight[key] = c
	g.mu.Unlock()

	c.v, c.err = fill()
	g.mu.Lock()
	delete(g.inflight, key)
	if c.err == nil {
		g.setLocked(key, c.v)
	}
	g.mu.Unlock()
	close(c.ch)
	return c.v, Filled, c.err
}

// Peek returns the held value for key without filling.
func (g *Group[K, V]) Peek(key K) (V, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	v, ok := g.done[key]
	return v, ok
}

// Set stores v for key, replacing any held value.
func (g *Group[K, V]) Set(key K, v V) {
	g.mu.Lock()
	g.setLocked(key, v)
	g.mu.Unlock()
}

func (g *Group[K, V]) setLocked(key K, v V) {
	if g.done == nil {
		g.done = make(map[K]V)
	}
	g.done[key] = v
}

// Keys returns the keys holding a value, in no particular order.
func (g *Group[K, V]) Keys() []K {
	g.mu.Lock()
	defer g.mu.Unlock()
	keys := make([]K, 0, len(g.done))
	for k := range g.done {
		keys = append(keys, k)
	}
	return keys
}
