package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's
// side of the boundary. Parent 0 marks a root; Req groups the spans of
// one job or request.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"startNs"`
	End    int64  `json:"endNs"`
}

// spanLog keeps spans in memory; write dumps them once the run ends.
type spanLog struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newSpanLog() *spanLog { return &spanLog{origin: time.Now()} }

// begin opens a span and returns its id.
func (l *spanLog) begin(name string, parent, req int64) int64 {
	now := time.Since(l.origin).Nanoseconds()
	l.mu.Lock()
	defer l.mu.Unlock()
	id := int64(len(l.spans)) + 1
	l.spans = append(l.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: now})
	return id
}

// end closes span id.
func (l *spanLog) end(id int64) {
	now := time.Since(l.origin).Nanoseconds()
	l.mu.Lock()
	l.spans[id-1].End = now
	l.mu.Unlock()
}

// snapshot copies the recorded spans.
func (l *spanLog) snapshot() []span {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]span(nil), l.spans...)
}

// write dumps every span as JSON to path.
func (l *spanLog) write(path string) error {
	raw, err := json.Marshal(l.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// selfTimes sums each span name's self time: its duration minus the
// part of its interval that its direct children cover. Children that
// overlap each other (parallel calls) are counted once, and a child's
// own children are charged to the child, not the grandparent.
func selfTimes(spans []span) map[string]time.Duration {
	kids := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		self := s.End - s.Start - covered(kids[s.ID], s.Start, s.End)
		out[s.Name] += time.Duration(self)
	}
	return out
}

// covered measures the union of the spans' intervals clipped to
// [lo, hi].
func covered(spans []span, lo, hi int64) int64 {
	iv := make([][2]int64, 0, len(spans))
	for _, s := range spans {
		a, b := max(s.Start, lo), min(s.End, hi)
		if a < b {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB int64
	open := false
	for _, x := range iv {
		switch {
		case !open:
			curA, curB, open = x[0], x[1], true
		case x[0] <= curB:
			curB = max(curB, x[1])
		default:
			total += curB - curA
			curA, curB = x[0], x[1]
		}
	}
	if open {
		total += curB - curA
	}
	return total
}
