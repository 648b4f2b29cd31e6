package main

import (
	"math"
	"sort"
	"sync"
	"time"
)

// minBeyond is how many samples must lie above a reported tail
// percentile: a p99 over 200 samples rests on two values and is noise.
const minBeyond = 10

// tailQuantiles are the candidate tail percentiles, highest first.
var tailQuantiles = []float64{0.999, 0.99, 0.9, 0.5}

// summary is a distribution reduced to its median and the highest tail
// percentile that has at least minBeyond samples beyond it.
type summary struct {
	N     int
	P50   float64
	TailQ float64 // 0 when even the median lacks minBeyond samples beyond
	Tail  float64
}

// quantile returns the nearest-rank q-quantile of sorted (non-empty):
// the smallest value with at least q·n samples at or below it.
func quantile(sorted []float64, q float64) float64 {
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// beyond counts the samples of n that lie above the nearest-rank
// q-quantile.
func beyond(n int, q float64) int {
	return n - int(math.Ceil(q*float64(n)))
}

// tailQuantile picks the highest candidate percentile with at least
// minBeyond of n samples beyond it (0 when none qualifies).
func tailQuantile(n int) float64 {
	for _, q := range tailQuantiles {
		if beyond(n, q) >= minBeyond {
			return q
		}
	}
	return 0
}

// summarize reduces xs (left unmodified) to a summary.
func summarize(xs []float64) summary {
	s := summary{N: len(xs)}
	if len(xs) == 0 {
		return s
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s.P50 = quantile(sorted, 0.5)
	if q := tailQuantile(len(sorted)); q > 0 {
		s.TailQ, s.Tail = q, quantile(sorted, q)
	}
	return s
}

// at returns the nearest-rank q-quantile of xs (0 for no samples). The
// result-line metrics use fixed percentiles; each workload sizes its
// sample count so that minBeyond samples lie beyond them.
func at(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return quantile(sorted, q)
}

// clock abstracts time for the open-loop generator so tests can drive
// it with a virtual clock.
type clock interface {
	// Now is the time since the schedule's origin.
	Now() time.Duration
	// SleepUntil blocks until Now() >= t.
	SleepUntil(t time.Duration)
}

// wallClock is the real clock, with its origin at construction.
type wallClock struct{ origin time.Time }

func newWallClock() wallClock { return wallClock{origin: time.Now()} }

func (c wallClock) Now() time.Duration { return time.Since(c.origin) }

func (c wallClock) SleepUntil(t time.Duration) {
	if d := t - c.Now(); d > 0 {
		time.Sleep(d)
	}
}

// shot is one open-loop request's timeline, relative to the schedule's
// origin.
type shot struct {
	Due, Sent, Done time.Duration
	OK              bool
}

// Latency runs from the due time, not the send time: a request that
// waited behind a stall was late for its user by that wait too.
func (s shot) Latency() time.Duration { return s.Done - s.Due }

// Lag is how late the generator sent the request.
func (s shot) Lag() time.Duration { return s.Sent - s.Due }

// openLoop issues one request per due time (ascending) over conns
// connections. Requests go out in due order; one whose due time passes
// while every connection is busy is sent as soon as one frees, and its
// latency still counts from its due time, so a stall is charged to
// every request it delayed. do reports whether request i succeeded.
func openLoop(due []time.Duration, conns int, clk clock, do func(i int) bool) []shot {
	out := make([]shot, len(due))
	var mu sync.Mutex
	next := 0
	take := func() int {
		mu.Lock()
		defer mu.Unlock()
		if next >= len(due) {
			return -1
		}
		next++
		return next - 1
	}
	var wg sync.WaitGroup
	wg.Add(conns)
	for c := 0; c < conns; c++ {
		go func() {
			defer wg.Done()
			for i := take(); i >= 0; i = take() {
				clk.SleepUntil(due[i])
				sent := clk.Now()
				ok := do(i)
				out[i] = shot{Due: due[i], Sent: sent, Done: clk.Now(), OK: ok}
			}
		}()
	}
	wg.Wait()
	return out
}

// poissonSchedule draws the arrival offsets of a Poisson process at
// rate per second that fall inside window.
func poissonSchedule(rng *splitmix, rate float64, window time.Duration) []time.Duration {
	var due []time.Duration
	t := 0.0
	for {
		t += -math.Log(1-rng.float64()) / rate
		d := time.Duration(t * float64(time.Second))
		if d >= window {
			return due
		}
		due = append(due, d)
	}
}

// splitmix is a small seeded generator (splitmix64) for the
// benchmark's own input choices; the program under test never sees it.
type splitmix struct{ s uint64 }

func newSplitmix(seed uint64) *splitmix { return &splitmix{s: seed} }

func (r *splitmix) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *splitmix) intn(n int) int { return int(r.next() % uint64(n)) }

func (r *splitmix) float64() float64 { return float64(r.next()>>11) / (1 << 53) }

// perm returns a seeded permutation of [0, n).
func (r *splitmix) perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}
