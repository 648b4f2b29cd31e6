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
		var pse *PeerStatusError
		if !errors.As(err, &pse) || pse.RetryAfter != 2*time.Second {
			t.Fatalf("shed response %v does not carry a 2s Retry-After", err)
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
	// A 200 means up whatever its body: the probe reads none.
	up := newLocalServer(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write([]byte("up"))
	}))
	if err := c.Probe(ctx, up); err != nil {
		t.Fatalf("Probe against a 200 that is not a ping document = %v, want nil (up)", err)
	}
	// Non-errors are not shed; arbitrary errors are not shed.
	if IsShed(nil) || IsShed(errors.New("boom")) {
		t.Fatal("IsShed misclassified a non-shed error")
	}
}

// TestOpTimeoutsDefaults pins each call kind's deadline and the
// -peer-timeout plumbing: PeerTimeout 0 takes the 10s default, the
// control plane (fetch, fill, manifest) gets PeerTimeout, the probe
// min(PeerTimeout, 2s), and shard dispatch is never client-bounded.
func TestOpTimeoutsDefaults(t *testing.T) {
	tests := []struct {
		name        string
		peerTimeout time.Duration
		wantControl time.Duration
		wantProbe   time.Duration
	}{
		{"zero takes the defaults", 0, 10 * time.Second, 2 * time.Second},
		{"generous budget caps the probe", 30 * time.Second, 30 * time.Second, 2 * time.Second},
		{"tight budget tightens the probe too", 500 * time.Millisecond, 500 * time.Millisecond, 500 * time.Millisecond},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			c := NewClient(ClientOptions{PeerTimeout: tt.peerTimeout})
			for _, op := range []string{"fetch", "fill", "manifest"} {
				if got := c.opTimeout(op); got != tt.wantControl {
					t.Errorf("PeerTimeout %v: %s deadline = %v, want %v", tt.peerTimeout, op, got, tt.wantControl)
				}
			}
			if got := c.opTimeout("probe"); got != tt.wantProbe {
				t.Errorf("PeerTimeout %v: probe deadline = %v, want %v", tt.peerTimeout, got, tt.wantProbe)
			}
			if got := c.opTimeout("shard"); got != 0 {
				t.Errorf("PeerTimeout %v bounded shard dispatch to %v", tt.peerTimeout, got)
			}
		})
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
	c := NewClient(ClientOptions{PeerTimeout: 50 * time.Millisecond})
	start := time.Now()
	_, _, err := c.FetchResult(context.Background(), slow, "deadbeefdeadbeef")
	if err == nil {
		t.Fatal("stalled fetch returned no error")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("stalled fetch took %v; the 50ms op deadline never cut it", elapsed)
	}
}
