package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"catch/internal/config"
	"catch/internal/runner"
)

// TestResultsRFC9111 is the conditional-request matrix for GET
// /v1/results/{key}: strong ETags, weak comparison, list and wildcard
// If-None-Match, body-less 304s, Cache-Control and Vary — the contract
// that lets any RFC-compliant cache front the cluster.
func TestResultsRFC9111(t *testing.T) {
	tc := newTestCluster(t, 1, func(_ int, o *Options) {})
	g := testGrid()
	job := g.Jobs()[0]
	key := job.Key()
	if out := tc.engines[0].Run(context.Background(), []runner.Job{job}); out[0].Err != "" {
		t.Fatal(out[0].Err)
	}
	etag := runner.ETagFor(key)

	tests := []struct {
		name        string
		key         string
		ifNoneMatch string
		wantStatus  int
		wantBody    bool
	}{
		{"plain GET hits", key, "", http.StatusOK, true},
		{"matching strong etag revalidates", key, etag, http.StatusNotModified, false},
		{"matching weak etag revalidates", key, "W/" + etag, http.StatusNotModified, false},
		{"wildcard revalidates", key, "*", http.StatusNotModified, false},
		{"match anywhere in a list revalidates", key, `"miss1", ` + etag + `, "miss2"`, http.StatusNotModified, false},
		{"list without a match serves the body", key, `"miss1", "miss2"`, http.StatusOK, true},
		{"stale etag serves the body", key, `"0123456789abcdef"`, http.StatusOK, true},
		{"unquoted key is not a valid etag", key, key, http.StatusOK, true},
		{"malformed key is the client's error", "not-a-key!", "", http.StatusBadRequest, true},
		{"uppercase hex is malformed", strings.ToUpper(key), "", http.StatusBadRequest, true},
		{"too-short key is malformed", "abc123", "", http.StatusBadRequest, true},
		{"missing key is a clean 404", strings.Repeat("ab", 32), "", http.StatusNotFound, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			req, err := http.NewRequest(http.MethodGet, tc.urls[0]+"/v1/results/"+tt.key, nil)
			if err != nil {
				t.Fatal(err)
			}
			if tt.ifNoneMatch != "" {
				req.Header.Set("If-None-Match", tt.ifNoneMatch)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer func() { _ = resp.Body.Close() }()
			if resp.StatusCode != tt.wantStatus {
				t.Fatalf("status = %s, want %d", resp.Status, tt.wantStatus)
			}
			body, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Fatal(err)
			}
			if tt.wantBody && len(body) == 0 {
				t.Fatal("response has no body")
			}
			if !tt.wantBody && len(body) != 0 {
				t.Fatalf("304 carried a %d-byte body; RFC 9110 forbids one", len(body))
			}
			if tt.wantStatus >= http.StatusBadRequest {
				return // error responses carry no cache headers worth pinning
			}
			// Validator and freshness headers ride both the 200 and the
			// 304, so a fronting cache can refresh its entry either way.
			if got := resp.Header.Get("ETag"); got != etag {
				t.Fatalf("ETag = %q, want %q", got, etag)
			}
			cc := resp.Header.Get("Cache-Control")
			for _, directive := range []string{"public", "max-age=31536000", "immutable"} {
				if !strings.Contains(cc, directive) {
					t.Fatalf("Cache-Control %q lacks %q", cc, directive)
				}
			}
			if got := resp.Header.Get("Vary"); got != "Accept-Encoding" {
				t.Fatalf("Vary = %q, want Accept-Encoding", got)
			}
		})
	}
}

// TestResultsMaxAgeConfigurable pins that -result-max-age reaches the
// Cache-Control header.
func TestResultsMaxAgeConfigurable(t *testing.T) {
	tc := newTestCluster(t, 1, nil)
	g := testGrid()
	job := g.Jobs()[0]
	if out := tc.engines[0].Run(context.Background(), []runner.Job{job}); out[0].Err != "" {
		t.Fatal(out[0].Err)
	}
	cs := &Server{Node: tc.nodes[0], Resolve: testResolver(), ResultMaxAge: 90 * time.Second}
	srv := newLocalServer(t, cs.Handler())
	resp, err := http.Get(srv + "/v1/results/" + job.Key())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	if cc := resp.Header.Get("Cache-Control"); !strings.Contains(cc, "max-age=90") {
		t.Fatalf("Cache-Control = %q, want max-age=90", cc)
	}
}

// TestResultsEmptyEntryIs404 pins the quarantine-race contract at the
// cluster layer: an entry that exists but holds no results is a 404,
// never a 200 with an empty body.
func TestResultsEmptyEntryIs404(t *testing.T) {
	tc := newTestCluster(t, 1, nil)
	g := testGrid()
	key := g.Jobs()[0].Key()
	// Force an empty entry past the cache's own guards: write the
	// memory map directly through a zero-length slice Put (rejected) and
	// confirm the read path never fabricates a hit.
	tc.engines[0].Cache().Put(key, nil)
	resp, err := http.Get(tc.urls[0] + "/v1/results/" + key)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("empty entry served %s, want 404", resp.Status)
	}
	var body runner.ErrorBody
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil || body.Error == "" {
		t.Fatalf("404 must carry a JSON error body (err %v)", err)
	}
}

// TestClusterSweepRejectsRepeatedAndUnknownNames: the cluster's sweep
// endpoint validates a body exactly as the single-node one does — a
// repeated config or an unknown workload is a 400 with a JSON error,
// and nothing runs anywhere.
func TestClusterSweepRejectsRepeatedAndUnknownNames(t *testing.T) {
	tc := newTestCluster(t, 2, nil)
	for _, body := range []string{
		`{"configs":["baseline-excl","baseline-excl"],"workloads":["mcf"]}`,
		`{"configs":["baseline-excl"],"workloads":["nosuch"]}`,
	} {
		resp, err := http.Post(tc.urls[0]+"/v1/sweep", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var eb runner.ErrorBody
		derr := json.NewDecoder(resp.Body).Decode(&eb)
		_ = resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: %s, want 400", body, resp.Status)
		}
		if derr != nil || eb.Error == "" {
			t.Fatalf("%s: want a JSON error body (decode err %v)", body, derr)
		}
	}
	if n := executedTotal(tc); n != 0 {
		t.Fatalf("rejected sweeps executed %d simulations", n)
	}
}

// padPast returns body followed by spaces up to limit+1 bytes: the same
// JSON value, one byte over the cap.
func padPast(body []byte, limit int) []byte {
	return append(bytes.Clone(body), bytes.Repeat([]byte(" "), max(0, limit+1-len(body)))...)
}

// TestClusterBodyCaps: a cluster node answers a POST /v1/sweep body
// over runner.MaxRequestBody and a POST /v1/cluster/shard body over
// maxShardBody with 400 and a JSON error, and runs nothing, though each
// is a valid request padded with spaces.
func TestClusterBodyCaps(t *testing.T) {
	tc := newTestCluster(t, 1, nil)
	cfg, _ := testResolver()("nol2-catch")
	shard, err := json.Marshal(shardRequest{Jobs: []runner.Job{runner.STJob(cfg, "mcf", 2_000, 500)}})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		path string
		body []byte
	}{
		{"/v1/sweep", padPast(testSweepBody(), runner.MaxRequestBody)},
		{"/v1/cluster/shard", padPast(shard, maxShardBody)},
	} {
		resp, err := http.Post(tc.urls[0]+c.path, "application/json", bytes.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		var eb runner.ErrorBody
		derr := json.NewDecoder(resp.Body).Decode(&eb)
		_ = resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || derr != nil || eb.Error == "" {
			t.Fatalf("%s, %d bytes: %s, error %q (%v); want 400 with a JSON error", c.path, len(c.body), resp.Status, eb.Error, derr)
		}
	}
	if n := executedTotal(tc); n != 0 {
		t.Fatalf("over-cap bodies executed %d simulations", n)
	}
}

// TestShardRejectsForeignConfig: a shard job must carry exactly the
// registered config of its name, because a shard body is the one that
// carries a whole SystemConfig and NewSystem sizes its arrays from it.
// A job whose config differs in one harmless field (LLCLat) and a job
// naming an unknown config each get a 400 with a JSON error and execute
// nothing; the registered config itself still runs.
func TestShardRejectsForeignConfig(t *testing.T) {
	tc := newTestCluster(t, 1, nil)
	cfg, _ := testResolver()("nol2-catch")
	changed, unknown := cfg, cfg
	changed.LLCLat++
	unknown.Name = "nosuch"
	post := func(c config.SystemConfig) (int, runner.ErrorBody) {
		t.Helper()
		body, err := json.Marshal(shardRequest{Jobs: []runner.Job{runner.STJob(c, "mcf", 2_000, 500)}})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(tc.urls[0]+"/v1/cluster/shard", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var eb runner.ErrorBody
		_ = json.NewDecoder(resp.Body).Decode(&eb) // a 200 carries results, not an error
		return resp.StatusCode, eb
	}
	for _, c := range []struct {
		name string
		cfg  config.SystemConfig
	}{{"changed LLCLat", changed}, {"unknown name", unknown}} {
		status, eb := post(c.cfg)
		if status != http.StatusBadRequest || eb.Error == "" {
			t.Errorf("%s: status %d, error %q; want 400 with a JSON error", c.name, status, eb.Error)
		}
	}
	if n := executedTotal(tc); n != 0 {
		t.Fatalf("rejected shards executed %d simulations", n)
	}
	if status, eb := post(cfg); status != http.StatusOK {
		t.Fatalf("registered config: status %d (%s), want 200", status, eb.Error)
	}
	if n := executedTotal(tc); n != 1 {
		t.Fatalf("the accepted shard executed %d simulations, want 1", n)
	}
}
