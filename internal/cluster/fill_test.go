package cluster

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"testing"

	"catch/internal/config"
	"catch/internal/core"
	"catch/internal/experiments"
	"catch/internal/interconnect"
	"catch/internal/runner"
	"catch/internal/workloads"
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
// forwards nothing. A fill as Client.ReplicaFill writes it is stored;
// one carrying the "replica" field older nodes sent is not this
// build's layout and is refused. With 2 replicas on 3 nodes every
// key's replica set names a member besides the receiver, so a receiver
// that fanned out would push a copy there.
func TestFillNeverFansOut(t *testing.T) {
	tc := newTestCluster(t, 3, func(_ int, o *Options) { o.Replicas = 2 })
	recv := tc.nodes[0]
	rs, err := json.Marshal([]core.Result{{Workload: "mcf", IPC: 1}})
	if err != nil {
		t.Fatal(err)
	}
	for i, tt := range []struct {
		name, format string
		status       int
	}{
		{"as ReplicaFill writes it", `{"key":%q,"results":%s}`, http.StatusOK},
		{"replica false", `{"key":%q,"results":%s,"replica":false}`, http.StatusBadRequest},
	} {
		key := fillKey(i)
		body := fmt.Sprintf(tt.format, key, rs)
		resp, err := http.Post(tc.urls[0]+"/v1/cluster/fill", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		_ = resp.Body.Close()
		if resp.StatusCode != tt.status {
			t.Fatalf("%s: fill got %s, want %d", tt.name, resp.Status, tt.status)
		}
		if _, ok := tc.engines[0].Cache().Get(key); ok != (tt.status == http.StatusOK) {
			t.Fatalf("%s: in the receiver's cache %v after a %d", tt.name, ok, tt.status)
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
	var eb runner.ErrorBody
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

// TestFillRejectsTooManyResults posts a fill just under the 64 KB body
// cap made of 21,816 empty results. An uncounted node answered 200,
// cached every one of them and allocated about 95 MB for the request.
// More than maxFillResults results must get 400 with a JSON error,
// cache nothing and cost the handler under 1 MB of allocation,
// while a fill of exactly maxFillResults is still stored. A results
// document of the same shape is refused the same way.
func TestFillRejectsTooManyResults(t *testing.T) {
	n := newFillNode(t)
	h := (&Server{Node: n}).Handler()
	key := fillKey(0)
	prefix := `{"key":"` + key + `","results":[{}`
	body := prefix + strings.Repeat(`,{}`, (maxFillBody-len(prefix)-2)/3) + `]}`
	if len(body) > maxFillBody || len(body) < maxFillBody-3 {
		t.Fatalf("test body is %d bytes, want just under %d", len(body), maxFillBody)
	}
	const allocBound = 1 << 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/cluster/fill", strings.NewReader(body)))
	runtime.ReadMemStats(&after)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("a fill of %d results got %d, want 400", strings.Count(body, "{}"), rec.Code)
	}
	var eb runner.ErrorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil || eb.Error == "" {
		t.Fatalf("the 400 is not a JSON error: %q", rec.Body.String())
	}
	if keys := n.opts.Engine.Cache().Keys(); len(keys) != 0 {
		t.Fatalf("a fill of too many results left %d keys in the cache", len(keys))
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > allocBound {
		t.Fatalf("the fill allocated %d bytes, bound %d", got, allocBound)
	}
	if _, err := readResultsDoc(strings.NewReader(body), key); err == nil {
		t.Fatal("readResultsDoc accepted the same document")
	}

	raw, err := json.Marshal(core.Result{Workload: "mcf", IPC: 1})
	if err != nil {
		t.Fatal(err)
	}
	result := string(raw)
	for results, want := range map[int]int{maxFillResults: http.StatusOK, maxFillResults + 1: http.StatusBadRequest} {
		fill := `{"key":"` + key + `","results":[` + strings.TrimSuffix(strings.Repeat(result+",", results), ",") + `]}`
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/cluster/fill", strings.NewReader(fill)))
		if rec.Code != want {
			t.Fatalf("a fill of %d results got %d, want %d", results, rec.Code, want)
		}
	}
	if rs, ok := n.opts.Engine.Cache().Get(key); !ok || len(rs) != maxFillResults {
		t.Fatalf("the fill of %d results was not stored (%d results)", maxFillResults, len(rs))
	}
	if err := n.HandleFill(fillKey(1), make([]core.Result, maxFillResults+1)); err == nil {
		t.Fatalf("HandleFill accepted %d results", maxFillResults+1)
	}
}

// TestRegisteredConfigsFitFillBound pins maxFillResults to the config
// registry: a job runs at most one workload per ring stop, so no
// registered config may have more stops than a fill may carry
// results, or its replicas would be refused.
func TestRegisteredConfigsFitFillBound(t *testing.T) {
	for _, name := range experiments.ConfigNames() {
		cfg, ok := experiments.ConfigByName(name)
		if !ok {
			t.Fatalf("registered config %q does not resolve", name)
		}
		if stops := interconnect.New(cfg.RingStops, 0).Stops; stops > maxFillResults {
			t.Errorf("config %q has %d ring stops, more than maxFillResults (%d)", name, stops, maxFillResults)
		}
	}
}

// TestLargestBodiesFitCaps pins the body caps to the registries. The
// largest legitimate sweep names every registered config and every
// workload once, with the widest budgets; indented, it must fit
// runner.MaxRequestBody (a run body is smaller still: one config and at
// most one workload per ring stop). The largest legitimate shard holds
// that whole sweep's jobs; it must fit maxShardBody twice over, so the
// registry can double before the cap refuses a real shard. The widest
// legitimate job result in a shard reply must fit maxJobResultBody
// twice over too, and its results maxFillBody: see widestJobResult.
func TestLargestBodiesFitCaps(t *testing.T) {
	sweep := runner.SweepRequest{Configs: experiments.ConfigNames(), Insts: math.MaxInt64, Warmup: math.MaxInt64}
	for _, wl := range workloads.All() {
		sweep.Workloads = append(sweep.Workloads, wl.WName)
	}
	raw, err := json.MarshalIndent(sweep, "", "    ")
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) > runner.MaxRequestBody {
		t.Errorf("full-grid sweep body is %d bytes indented, over MaxRequestBody (%d)", len(raw), runner.MaxRequestBody)
	}
	jobs, err := sweep.Jobs(experiments.ConfigByName)
	if err != nil {
		t.Fatal(err)
	}
	shard, err := json.Marshal(shardRequest{Jobs: jobs})
	if err != nil {
		t.Fatal(err)
	}
	if 2*len(shard) > maxShardBody {
		t.Errorf("full-grid shard of %d jobs is %d bytes; maxShardBody (%d) must hold it twice", len(jobs), len(shard), maxShardBody)
	}
	jr := widestJobResult(t)
	reply, err := json.Marshal(jr)
	if err != nil {
		t.Fatal(err)
	}
	if 2*len(reply) > maxJobResultBody {
		t.Errorf("widest job result is %d bytes; maxJobResultBody (%d) must hold it twice", len(reply), maxJobResultBody)
	}
	doc, err := json.Marshal(runner.ResultsDoc{Key: jr.Key, Results: jr.Results})
	if err != nil {
		t.Fatal(err)
	}
	if len(doc) > maxFillBody {
		t.Errorf("widest results document is %d bytes, over maxFillBody (%d)", len(doc), maxFillBody)
	}
	t.Logf("largest sweep %d bytes indented; largest shard %d jobs, %d bytes; widest job result %d bytes, its results document %d",
		len(raw), len(jobs), len(shard), len(reply), len(doc))
}

// widestJobResult builds the longest job result a shard reply can
// legitimately carry: a job of the registered config with the longest
// JSON, on maxFillResults cores running the longest workload names,
// with the widest budgets; maxFillResults results of a real CATCH run,
// each with every number at its widest JSON, every pointer set and
// every name the longest registered one; a panic's error; and a panic
// stack as deep as the runtime prints.
func widestJobResult(t *testing.T) runner.JobResult {
	t.Helper()
	var job runner.Job
	longest := ""
	for _, name := range experiments.ConfigNames() {
		cfg, _ := experiments.ConfigByName(name)
		a, _ := json.Marshal(cfg)
		b, _ := json.Marshal(job.Config)
		if len(a) > len(b) {
			job.Config = cfg
		}
		if len(name) > len(longest) {
			longest = name
		}
	}
	names := make([]string, 0, len(workloads.All()))
	for _, wl := range workloads.All() {
		names = append(names, wl.WName)
		if len(wl.WName) > len(longest) {
			longest = wl.WName
		}
		if len(wl.WCategory) > len(longest) {
			longest = wl.WCategory
		}
	}
	slices.SortFunc(names, func(a, b string) int { return len(b) - len(a) })
	job.Workloads = names[:maxFillResults]
	job.Insts, job.Warmup = math.MaxInt64, math.MaxInt64
	job.Sample = &runner.SampleSpec{Interval: math.MaxInt64, K: math.MaxInt}

	real := runner.STJob(config.WithCATCH(config.BaselineExclusive(), "catch"), "mcf", 2_000, 500)
	rs, err := real.Execute()
	if err != nil {
		t.Fatal(err)
	}
	results := make([]core.Result, maxFillResults)
	for i := range results {
		results[i] = rs[0]
		widen(reflect.ValueOf(&results[i]).Elem(), longest)
	}
	panicked := &runner.PanicError{Value: "runtime error: index out of range [-9223372036854775808]"}
	return runner.JobResult{
		Job:     job,
		Key:     job.Key(),
		Results: results,
		Err:     fmt.Sprintf("attempt %d/%d: %v", math.MaxInt, math.MaxInt, panicked),
		Status:  runner.StatusCanceled,
		Stack:   string(deepStack(200)),
		Elapsed: math.MinInt64,
	}
}

// widen sets every number under v to its widest JSON, every string to
// s and every nil pointer to a new value, keeping slice lengths.
func widen(v reflect.Value, s string) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			widen(v.Field(i), s)
		}
	case reflect.Pointer:
		if v.IsNil() {
			v.Set(reflect.New(v.Type().Elem()))
		}
		widen(v.Elem(), s)
	case reflect.Slice, reflect.Array:
		for i := 0; i < v.Len(); i++ {
			widen(v.Index(i), s)
		}
	case reflect.String:
		v.SetString(s)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(-1 << (v.Type().Bits() - 1))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(math.MaxUint64 >> (64 - v.Type().Bits()))
	case reflect.Float32:
		v.SetFloat(-math.MaxFloat32)
	case reflect.Float64:
		v.SetFloat(-math.MaxFloat64)
	}
}

// deepStack returns the stack of a goroutine depth calls deep, as
// debug.Stack records a job's panic: the runtime prints its innermost
// and outermost 50 frames.
func deepStack(depth int) []byte {
	if depth > 0 {
		return deepStack(depth - 1)
	}
	return debug.Stack()
}
