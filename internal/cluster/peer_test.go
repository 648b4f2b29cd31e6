package cluster

import (
	"context"
	"errors"
	"net/http"
	"testing"
	"time"

	"catch/internal/fault"
)

// shedHandler answers every request the way a catchd at its -shed-after
// limit does: 503 plus Retry-After.
func shedHandler(retryAfter string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if retryAfter != "" {
			w.Header().Set("Retry-After", retryAfter)
		}
		http.Error(w, "shedding load", http.StatusServiceUnavailable)
	})
}

// TestPeerShedClassification pins the shed-vs-dead distinction: a 503
// with Retry-After is a live peer protecting itself — the call fails,
// the pause is surfaced, and the peer's breaker records a SUCCESS so
// load shedding can never cascade into "peer marked down". The same
// 503 without Retry-After is indistinguishable from a dying proxy and
// stays breaker fodder.
func TestPeerShedClassification(t *testing.T) {
	shedding := newLocalServer(t, shedHandler("2"))
	dead := newLocalServer(t, shedHandler(""))
	c := NewClient(ClientOptions{BreakerThreshold: 3})
	ctx := context.Background()

	for i := 0; i < 10; i++ {
		_, err := c.Manifest(ctx, shedding)
		if err == nil {
			t.Fatal("shed response did not fail the call")
		}
		if !IsShed(err) {
			t.Fatalf("shed response classified dead: %v", err)
		}
		if got := RetryAfter(err); got != 2*time.Second {
			t.Fatalf("RetryAfter = %v, want 2s", got)
		}
	}
	if st := c.BreakerState(shedding); st != fault.StateClosed {
		t.Fatalf("10 shed responses left the breaker %s; shedding must not trip it", st)
	}

	for i := 0; i < 3; i++ {
		if _, err := c.Manifest(ctx, dead); err == nil || IsShed(err) {
			t.Fatalf("bare 503 classified as shed (err %v)", err)
		}
	}
	if st := c.BreakerState(dead); st != fault.StateOpen {
		t.Fatalf("3 bare 503s left the breaker %s, want open", st)
	}

	// A shedding peer is alive to the failure detector too.
	if err := c.Probe(ctx, shedding); err != nil {
		t.Fatalf("Probe against a shedding peer = %v, want nil (alive)", err)
	}
	// Non-errors are not shed; arbitrary errors are not shed.
	if IsShed(nil) || IsShed(errors.New("boom")) || RetryAfter(errors.New("boom")) != 0 {
		t.Fatal("IsShed/RetryAfter misclassified a non-shed error")
	}
}

// TestOpTimeoutsDefaults pins the per-op deadline table and the
// -peer-timeout plumbing: zero fields take the defaults, WithDefault
// overrides the control plane but keeps the probe snappy, and shard
// dispatch is never client-bounded.
func TestOpTimeoutsDefaults(t *testing.T) {
	def := DefaultOpTimeouts()
	if def.Shard != 0 {
		t.Fatalf("default shard deadline = %v; shard dispatch must be unbounded", def.Shard)
	}
	if def.Probe >= def.Fetch {
		t.Fatalf("probe deadline %v not tighter than control plane %v", def.Probe, def.Fetch)
	}

	tests := []struct {
		name      string
		d         time.Duration
		wantFetch time.Duration
		wantProbe time.Duration
	}{
		{"zero keeps zero", 0, 0, 0},
		{"generous budget caps the probe", 30 * time.Second, 30 * time.Second, def.Probe},
		{"tight budget tightens the probe too", 500 * time.Millisecond, 500 * time.Millisecond, 500 * time.Millisecond},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := OpTimeouts{}.WithDefault(tt.d)
			if got.Fetch != tt.wantFetch || got.Fill != tt.wantFetch || got.Manifest != tt.wantFetch {
				t.Fatalf("WithDefault(%v) control plane = %v/%v/%v, want %v",
					tt.d, got.Fetch, got.Fill, got.Manifest, tt.wantFetch)
			}
			if got.Probe != tt.wantProbe {
				t.Fatalf("WithDefault(%v) probe = %v, want %v", tt.d, got.Probe, tt.wantProbe)
			}
			if got.Shard != 0 {
				t.Fatalf("WithDefault(%v) bounded shard dispatch to %v", tt.d, got.Shard)
			}
		})
	}

	// NewClient fills unset fields from the defaults...
	c := NewClient(ClientOptions{})
	if c.timeouts.Fetch != def.Fetch || c.timeouts.Probe != def.Probe {
		t.Fatalf("NewClient timeouts = %+v, want defaults", c.timeouts)
	}
	// ...and honors explicit ones.
	c = NewClient(ClientOptions{Timeouts: OpTimeouts{Fetch: time.Second}})
	if c.timeouts.Fetch != time.Second || c.timeouts.Fill != def.Fill {
		t.Fatalf("NewClient mixed timeouts = %+v", c.timeouts)
	}
}

// TestPeerPerOpDeadline pins that the deadline actually cuts a stalled
// control-plane call: a peer that never answers fails the fetch in
// ~the op deadline instead of the old transport-wide 10s.
func TestPeerPerOpDeadline(t *testing.T) {
	stall := make(chan struct{})
	defer close(stall)
	slow := newLocalServer(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-stall:
		case <-r.Context().Done():
		}
	}))
	c := NewClient(ClientOptions{Timeouts: OpTimeouts{Fetch: 50 * time.Millisecond}})
	start := time.Now()
	_, _, err := c.FetchResult(context.Background(), slow, "deadbeefdeadbeef")
	if err == nil {
		t.Fatal("stalled fetch returned no error")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("stalled fetch took %v; the 50ms op deadline never cut it", elapsed)
	}
}
