package cluster

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"catch/internal/config"
	"catch/internal/runner"
)

// TestAnotherResultLayoutRefused: a node whose core.Result lacks a
// field (here IPC) writes fills and results documents that this
// build's decoder refuses, as GetDisk refuses a foreign entry. Its fill
// gets 400 with a JSON error and caches nothing. The same document
// served by a replica peer makes the lookup a peer error, not a hit
// with IPC 0, and caches nothing; so does a peer's well-formed
// document for another key.
func TestAnotherResultLayoutRefused(t *testing.T) {
	job := runner.STJob(config.BaselineExclusive(), "mcf", 2_000, 500)
	rs, err := job.Execute()
	if err != nil {
		t.Fatal(err)
	}
	key := job.Key()
	doc := func(key string) string {
		rec := httptest.NewRecorder()
		runner.WriteJSON(rec, http.StatusOK, runner.ResultsDoc{Key: key, Results: rs})
		return rec.Body.String()
	}
	foreign := withoutField(t, doc(key), "IPC")

	n := newFillNode(t)
	rec := httptest.NewRecorder()
	(&Server{Node: n}).Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/cluster/fill", strings.NewReader(foreign)))
	var eb runner.ErrorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &eb); rec.Code != http.StatusBadRequest || err != nil || eb.Error == "" {
		t.Fatalf("a fill without IPC got %d %q, want 400 with a JSON error", rec.Code, rec.Body.String())
	}
	if keys := n.opts.Engine.Cache().Keys(); len(keys) != 0 {
		t.Fatalf("a fill without IPC left %d keys in the cache", len(keys))
	}

	for name, body := range map[string]string{"without IPC": foreign, "for another key": doc(fillKey(0))} {
		peer := newLocalServer(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			_, _ = io.WriteString(w, body)
		}))
		self := "http://self.invalid:1"
		eng := runner.New(runner.Options{Workers: 1, Cache: runner.NewCache("")})
		node, err := NewNode(Options{Self: self, Peers: []string{self, peer}, Replicas: 2, Engine: eng})
		if err != nil {
			t.Fatal(err)
		}
		if got, tier, ok := node.Lookup(context.Background(), key, false); ok {
			t.Fatalf("a peer document %s was a %s hit (IPC %v)", name, tier, got[0].IPC)
		}
		if st := node.TierStats()[2]; st.Tier != "peer" || st.Errors != 1 || st.Hits != 0 || st.Misses != 0 {
			t.Fatalf("a peer document %s: peer tier counted %+v, want one error", name, st)
		}
		if keys := eng.Cache().Keys(); len(keys) != 0 {
			t.Fatalf("a peer document %s left %d keys in the cache", name, len(keys))
		}
	}
}

// TestShardReplyChecks drives Client.RunShard against fake peers. A
// 1-job shard answered with 20,000 {} (60 KB) made the coordinator
// decode 20,000 job results, 62.9 MB, before it noticed the count; the
// reply must now fail with under 1 MB allocated. A reply with one
// result too many or too few, or one result under another job's key,
// fails too, as does a well-formed reply over len(jobs) times
// maxJobResultBody, and the reply as the shard endpoint writes it
// passes.
func TestShardReplyChecks(t *testing.T) {
	jobs := []runner.Job{
		runner.STJob(config.BaselineExclusive(), "mcf", 2_000, 500),
		runner.STJob(config.BaselineExclusive(), "hmmer", 2_000, 500),
	}
	out := runner.New(runner.Options{Workers: 1}).Run(context.Background(), jobs)
	reply := func(rs ...runner.JobResult) string {
		rec := httptest.NewRecorder()
		runner.WriteJSON(rec, http.StatusOK, shardResponse{Jobs: rs})
		return rec.Body.String()
	}
	// answering serves body to every shard request.
	answering := func(body string) string {
		return newLocalServer(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			_, _ = io.Copy(io.Discard, r.Body)
			w.Header().Set("Content-Type", "application/json")
			_, _ = io.WriteString(w, body)
		}))
	}
	c := NewClient(ClientOptions{})
	ctx := context.Background()

	empties := `{"jobs":[{}` + strings.Repeat(`,{}`, 19_999) + `]}`
	peer := answering(empties)
	var err error
	n := allocated(func() { _, err = c.RunShard(ctx, peer, jobs[:1], false) })
	if err == nil || n > 1<<20 {
		t.Fatalf("a 1-job shard answered with %d bytes of {}: error %v, %d bytes allocated; want an error under 1 MB", len(empties), err, n)
	}
	t.Logf("a 1-job shard answered with %d bytes of {} failed after %d bytes allocated: %v", len(empties), n, err)
	long := out[0]
	long.Stack = strings.Repeat("x", len(jobs)*maxJobResultBody)
	for _, tc := range []struct {
		name string
		body string
	}{
		{"one result too many", reply(out[0], out[1], out[1])},
		{"one result too few", reply(out[0])},
		{"results swapped", reply(out[1], out[0])},
		{"over the cap", reply(long, out[1])},
	} {
		if got, err := c.RunShard(ctx, answering(tc.body), jobs, false); err == nil || got != nil {
			t.Errorf("%s: RunShard returned %d results, error %v; want an error", tc.name, len(got), err)
		}
	}
	got, err := c.RunShard(ctx, answering(reply(out...)), jobs, false)
	if err != nil || len(got) != len(jobs) || got[0].Key != jobs[0].Key() || got[1].Key != jobs[1].Key() {
		t.Fatalf("the reply as the server writes it: %d results, error %v", len(got), err)
	}
}

// TestResultsBodyBytes pins the GET /v1/results/{key} body on the
// cluster and the single-node server to the bytes both wrote before
// runner.ResultsDoc: json.Encoder's compact encoding of the map
// {"key", "results"}, newline included.
func TestResultsBodyBytes(t *testing.T) {
	tc := newTestCluster(t, 1, nil)
	job := runner.STJob(config.BaselineExclusive(), "mcf", 2_000, 500)
	rs, err := job.Execute()
	if err != nil {
		t.Fatal(err)
	}
	key := job.Key()
	tc.engines[0].Cache().Put(key, rs)
	want, err := json.Marshal(map[string]any{"key": key, "results": rs})
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')
	single := (&runner.Server{Engine: tc.engines[0], Resolve: testResolver()}).Handler()
	for name, h := range map[string]http.Handler{"cluster": tc.wired[0], "single-node": single} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/results/"+key, nil))
		if rec.Code != http.StatusOK || rec.Body.String() != string(want) {
			t.Errorf("%s server: %d, %d bytes that differ from the %d the map wrote", name, rec.Code, rec.Body.Len(), len(want))
		}
	}
}
