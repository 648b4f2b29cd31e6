package cluster

import (
	"context"
	"sort"
	"sync"
	"time"

	"catch/internal/core"
	"catch/internal/runner"
)

// item is one queued job plus its position in the owning shard.
type item struct {
	idx int
	job runner.Job
	key string
}

// stealQueue is a node's work queue for the shard it is currently
// executing. Local workers pop from the head; a remote stealer pops
// from the tail (the jobs the local workers would reach last), and
// returns each result through fill. A lent job the stealer never
// returns is reclaimed after a deadline and computed locally —
// stealing can only ever shorten a sweep, never lose work, and because
// results are content-addressed a duplicated computation is harmless.
type stealQueue struct {
	mu      sync.Mutex
	pending []item
	lent    map[string]item
	filled  map[string][]core.Result
	active  bool
	fillCh  chan struct{} // closed-and-replaced on every fill

	stolen    int
	reclaimed int
}

func newStealQueue() *stealQueue {
	return &stealQueue{
		lent:   make(map[string]item),
		filled: make(map[string][]core.Result),
		fillCh: make(chan struct{}),
	}
}

// begin arms the queue for one shard run. Only one shard runs at a
// time per node; a second concurrent begin reports false and the
// caller falls back to engine-only execution (no stealing).
func (q *stealQueue) begin(jobs []runner.Job) ([]item, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.active {
		return nil, false
	}
	q.active = true
	q.pending = q.pending[:0]
	clear(q.lent)
	clear(q.filled)
	items := make([]item, len(jobs))
	for i := range jobs {
		items[i] = item{idx: i, job: jobs[i], key: jobs[i].Key()}
	}
	q.pending = append(q.pending, items...)
	return items, true
}

// end disarms the queue after the shard completes.
func (q *stealQueue) end() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.active = false
	q.pending = q.pending[:0]
	clear(q.lent)
	clear(q.filled)
}

// pop hands the head job to a local worker.
func (q *stealQueue) pop() (item, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.pending) == 0 {
		return item{}, false
	}
	it := q.pending[0]
	q.pending = q.pending[1:]
	return it, true
}

// steal hands up to max tail jobs to a remote stealer, marking them
// lent. An inactive queue has nothing to steal.
func (q *stealQueue) steal(max int) []runner.Job {
	if max <= 0 {
		return nil
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if !q.active || len(q.pending) == 0 {
		return nil
	}
	n := min(max, len(q.pending))
	cut := len(q.pending) - n
	out := make([]runner.Job, 0, n)
	for _, it := range q.pending[cut:] {
		q.lent[it.key] = it
		out = append(out, it.job)
	}
	q.pending = q.pending[:cut]
	q.stolen += n
	return out
}

// fill delivers a stolen job's results. Unsolicited keys (a stale
// stealer returning after reclaim, or a key never lent) are accepted
// into the filled map harmlessly — the shard assembler only reads the
// keys it still needs. Returns whether the key was outstanding.
func (q *stealQueue) fill(key string, rs []core.Result) bool {
	if len(rs) == 0 {
		return false
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if !q.active {
		return false
	}
	_, wasLent := q.lent[key]
	delete(q.lent, key)
	q.filled[key] = rs
	// Wake every awaitLent waiter: close the current channel and arm a
	// fresh one for the next fill.
	close(q.fillCh)
	q.fillCh = make(chan struct{})
	return wasLent
}

// takeFilled removes and returns the delivered results for key.
func (q *stealQueue) takeFilled(key string) ([]core.Result, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	rs, ok := q.filled[key]
	if ok {
		delete(q.filled, key)
	}
	return rs, ok
}

// lentCount reports how many stolen jobs are still outstanding.
func (q *stealQueue) lentCount() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.lent)
}

// queueLen reports how many jobs are still poppable (the signal peers
// use to pick the most-loaded victim).
func (q *stealQueue) queueLen() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.pending)
}

// awaitLent waits until every lent job has been filled, the deadline
// passes, or ctx ends; then it reclaims whatever is still outstanding
// and returns those items (sorted by shard position) for local
// recomputation.
func (q *stealQueue) awaitLent(ctx context.Context, deadline time.Duration) []item {
	timer := time.NewTimer(deadline)
	defer timer.Stop()
	for {
		q.mu.Lock()
		if len(q.lent) == 0 {
			q.mu.Unlock()
			return nil
		}
		ch := q.fillCh
		q.mu.Unlock()
		select {
		case <-ch:
			continue
		case <-timer.C:
		case <-ctx.Done():
		}
		return q.reclaim()
	}
}

// reclaim takes back every still-lent job, in shard order.
func (q *stealQueue) reclaim() []item {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make([]item, 0, len(q.lent))
	keys := make([]string, 0, len(q.lent))
	for k := range q.lent {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		out = append(out, q.lent[k])
	}
	clear(q.lent)
	q.reclaimed += len(out)
	sort.Slice(out, func(i, j int) bool { return out[i].idx < out[j].idx })
	return out
}

// counters snapshots the lifetime steal bookkeeping.
func (q *stealQueue) counters() (stolen, reclaimed int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.stolen, q.reclaimed
}
