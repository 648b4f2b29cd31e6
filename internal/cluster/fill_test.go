package cluster

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"catch/internal/config"
	"catch/internal/core"
	"catch/internal/runner"
)

// fillKey returns the content address of the i-th small test job.
func fillKey(i int) string {
	return runner.STJob(config.BaselineExclusive(), "mcf", int64(1000+i), 400).Key()
}

// newFillNode builds a one-node cluster over a memory-only cache.
func newFillNode(tb testing.TB) *Node {
	tb.Helper()
	eng := runner.New(runner.Options{Workers: 1, Cache: runner.NewCache("")})
	n, err := NewNode(Options{Self: "http://a:1", Peers: []string{"http://a:1"}, Engine: eng})
	if err != nil {
		tb.Fatal(err)
	}
	return n
}

// TestHandleFill pins the fill contract: a malformed key or an empty
// result list is an error, and a valid fill lands in the cache and
// counts as a replica taken in. A result is content-addressed, so it
// is valid wherever it came from.
func TestHandleFill(t *testing.T) {
	n := newFillNode(t)
	key := fillKey(0)
	rs := []core.Result{{Workload: "mcf", IPC: 1}}
	if err := n.HandleFill("not hex!", rs); err == nil {
		t.Fatal("HandleFill accepted a malformed key")
	}
	if err := n.HandleFill(key, nil); err == nil {
		t.Fatal("HandleFill accepted empty results")
	}
	if got := n.mReplicasIn.Value(); got != 0 {
		t.Fatalf("rejected fills counted %d replicas in", got)
	}
	if err := n.HandleFill(key, rs); err != nil {
		t.Fatalf("HandleFill: %v", err)
	}
	if got, ok := n.opts.Engine.Cache().Get(key); !ok || len(got) != 1 {
		t.Fatal("a valid fill did not land in the cache")
	}
	if got := n.mReplicasIn.Value(); got != 1 {
		t.Fatalf("one valid fill counted %d replicas in, want 1", got)
	}
}

// TestFillNeverFansOut pins that POST /v1/cluster/fill stores and
// forwards nothing, whether or not the body carries the "replica"
// field older nodes sent. With 2 replicas on 3 nodes every key's
// replica set names a member besides the receiver, so a receiver that
// fanned out would push a copy there.
func TestFillNeverFansOut(t *testing.T) {
	tc := newTestCluster(t, 3, func(_ int, o *Options) { o.Replicas = 2 })
	recv := tc.nodes[0]
	rs, err := json.Marshal([]core.Result{{Workload: "mcf", IPC: 1}})
	if err != nil {
		t.Fatal(err)
	}
	for i, tt := range []struct{ name, format string }{
		{"no replica field", `{"key":%q,"results":%s}`},
		{"replica false", `{"key":%q,"results":%s,"replica":false}`},
	} {
		key := fillKey(i)
		body := fmt.Sprintf(tt.format, key, rs)
		resp, err := http.Post(tc.urls[0]+"/v1/cluster/fill", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		_ = resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: fill got %s", tt.name, resp.Status)
		}
		if _, ok := tc.engines[0].Cache().Get(key); !ok {
			t.Fatalf("%s: fill did not land in the receiver's cache", tt.name)
		}
		if got := recv.mReplicaFills.Value(); got != 0 {
			t.Fatalf("%s: receiver pushed %d replica copies, want 0", tt.name, got)
		}
		for j := 1; j < len(tc.engines); j++ {
			if _, ok := tc.engines[j].Cache().Get(key); ok {
				t.Fatalf("%s: fill reached node %d", tt.name, j)
			}
		}
	}
}

// TestFillRejectsOversizedBody posts a 300 KB fill of 100,000 empty
// results. Each 3-byte {} would decode to a 960-byte core.Result: an
// uncapped node answered 200, cached all of them and allocated about
// 500 MB for the one request. The body must get 400 with a JSON error,
// cache nothing, and cost the handler under 1 MB of allocation.
func TestFillRejectsOversizedBody(t *testing.T) {
	n := newFillNode(t)
	h := (&Server{Node: n}).Handler()
	key := fillKey(0)
	body := `{"key":"` + key + `","results":[{}` + strings.Repeat(`,{}`, 99_999) + `]}`
	if len(body) < 300_000 {
		t.Fatalf("test body is %d bytes, want at least 300 KB", len(body))
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/cluster/fill", strings.NewReader(body))
	rec := httptest.NewRecorder()
	const allocBound = 1 << 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	h.ServeHTTP(rec, req)
	runtime.ReadMemStats(&after)

	if rec.Code != http.StatusBadRequest {
		t.Fatalf("oversized fill got %d, want 400", rec.Code)
	}
	var eb errorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil || eb.Error == "" {
		t.Fatalf("oversized fill's 400 is not a JSON error: %q", rec.Body.String())
	}
	if _, ok := n.opts.Engine.Cache().Get(key); ok {
		t.Fatal("an oversized fill was cached")
	}
	if keys := n.opts.Engine.Cache().Keys(); len(keys) != 0 {
		t.Fatalf("an oversized fill left %d keys in the cache", len(keys))
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > allocBound {
		t.Fatalf("the oversized fill allocated %d bytes, bound %d", got, allocBound)
	}
}
