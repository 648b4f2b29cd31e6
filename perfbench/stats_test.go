package main

import (
	"testing"
	"time"
)

func TestTailQuantileNeedsTenBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 0.5}, {99, 0.5}, {100, 0.9},
		{999, 0.9}, {1000, 0.99}, {9999, 0.99}, {10000, 0.999},
	}
	for _, c := range cases {
		if got := tailQuantile(c.n); got != c.want {
			t.Errorf("tailQuantile(%d) = %v, want %v", c.n, got, c.want)
		}
		if c.want > 0 && beyond(c.n, c.want) < minBeyond {
			t.Errorf("n=%d: only %d samples beyond p%v", c.n, beyond(c.n, c.want), 100*c.want)
		}
	}
}

func TestSummarizeNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	s := summarize(xs)
	if s.N != 100 || s.P50 != 50 || s.TailQ != 0.9 || s.Tail != 90 {
		t.Fatalf("summarize(1..100) = %+v, want N=100 P50=50 p90=90", s)
	}
	if xs[0] != 100 {
		t.Fatal("summarize reordered its input")
	}
	if got := at(xs, 0.99); got != 99 {
		t.Fatalf("at(p99) = %v, want 99", got)
	}
}

// fakeClock is a virtual clock: sleeping jumps time forward, and the
// request function advances it by the simulated service time.
type fakeClock struct{ t time.Duration }

func (c *fakeClock) Now() time.Duration { return c.t }

func (c *fakeClock) SleepUntil(t time.Duration) {
	if t > c.t {
		c.t = t
	}
}

func TestOpenLoopChargesStallToLaterRequests(t *testing.T) {
	clk := &fakeClock{}
	due := []time.Duration{0, 10 * time.Millisecond, 20 * time.Millisecond, 30 * time.Millisecond}
	service := []time.Duration{50 * time.Millisecond, time.Millisecond, time.Millisecond, time.Millisecond}
	shots := openLoop(due, 1, clk, func(i int) bool {
		clk.t += service[i]
		return true
	})
	// The first request stalls the only connection for 50ms. Each later
	// request is served in 1ms but was due long before it could be
	// sent, so its latency includes the wait.
	wantLat := []time.Duration{50, 41, 32, 23}
	wantLag := []time.Duration{0, 40, 31, 22}
	for i, s := range shots {
		if !s.OK || s.Latency() != wantLat[i]*time.Millisecond || s.Lag() != wantLag[i]*time.Millisecond {
			t.Errorf("request %d: latency %v lag %v, want %vms and %vms", i, s.Latency(), s.Lag(), wantLat[i], wantLag[i])
		}
		if sendTimed := s.Done - s.Sent; i > 0 && sendTimed != time.Millisecond {
			t.Errorf("request %d: service time %v, want 1ms", i, sendTimed)
		}
	}
}

func TestOpenLoopKeepsScheduleWhenIdle(t *testing.T) {
	clk := &fakeClock{}
	due := []time.Duration{5 * time.Millisecond, 40 * time.Millisecond}
	shots := openLoop(due, 1, clk, func(int) bool {
		clk.t += 2 * time.Millisecond
		return false
	})
	for i, s := range shots {
		if s.OK || s.Sent != due[i] || s.Latency() != 2*time.Millisecond {
			t.Errorf("request %d: %+v, want sent on time with 2ms latency and OK=false", i, s)
		}
	}
}

func TestPoissonScheduleSeededAndBounded(t *testing.T) {
	a := poissonSchedule(newSplitmix(7), 200, 5*time.Second)
	b := poissonSchedule(newSplitmix(7), 200, 5*time.Second)
	c := poissonSchedule(newSplitmix(8), 200, 5*time.Second)
	if len(a) != len(b) || len(a) < 800 || len(a) > 1200 {
		t.Fatalf("%d and %d arrivals at 200/s over 5s", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] || (i > 0 && a[i] < a[i-1]) || a[i] >= 5*time.Second {
			t.Fatalf("arrival %d: %v vs %v (not seeded, ascending and in window)", i, a[i], b[i])
		}
	}
	if len(c) == len(a) && c[0] == a[0] {
		t.Fatal("different seeds drew the same schedule")
	}
}

func TestSelfTimeNested(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "pass", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "job", Start: 10, End: 50},
		{ID: 3, Parent: 2, Name: "measure", Start: 20, End: 30},
		{ID: 4, Parent: 1, Name: "job", Start: 60, End: 70},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{"pass": 50, "job": 30 + 10, "measure": 10}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("self(%s) = %d, want %d", name, got[name], w)
		}
	}
	total := time.Duration(0)
	for _, d := range got {
		total += d
	}
	if total != 100 {
		t.Errorf("self times sum to %d, want the root's 100", total)
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "sweep", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 50},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 70},  // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // runs past the parent
		{ID: 5, Parent: 1, Name: "d", Start: 40, End: 45},  // inside a and b
	}
	got := selfTimes(spans)
	// Covered: [10,70] ∪ [90,100] = 70, so the sweep's own time is 30.
	if got["sweep"] != 30 {
		t.Errorf("self(sweep) = %d, want 30", got["sweep"])
	}
	if got["a"] != 40 || got["b"] != 40 || got["c"] != 30 || got["d"] != 5 {
		t.Errorf("leaf self times %v, want a=40 b=40 c=30 d=5", got)
	}
}
