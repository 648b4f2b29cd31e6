package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"reflect"
	"regexp"
	"runtime"
	"strings"
	"testing"

	"catch/internal/config"
	"catch/internal/core"
	"catch/internal/runner"
)

// peerAllocBound is the most a peer-body decoder may allocate for an
// n-byte body: 64 bytes per input byte plus 64 KB, room for
// maxFillResults zero results (about 8 KB) and the read buffer. A
// decoder that materialized a result per 3-byte {} would pass it at
// about 330 bytes per input byte.
func peerAllocBound(n int) uint64 { return 64*uint64(n) + 64<<10 }

// allocated returns the heap bytes fn allocates.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// checkMatchesUnmarshal fails t unless json.Unmarshal decodes body to
// got, the value a strict decoder accepted it as.
func checkMatchesUnmarshal[T any](t *testing.T, body []byte, got T) {
	t.Helper()
	var want T
	if err := json.Unmarshal(body, &want); err != nil {
		t.Fatalf("%.120q: accepted, but json.Unmarshal rejects it: %v", body, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%.120q: accepted as a value json.Unmarshal does not decode it to", body)
	}
}

// withoutField drops the first numeric field name from a JSON
// document: what a node whose type lacks that field writes.
func withoutField(tb testing.TB, doc, name string) string {
	tb.Helper()
	loc := regexp.MustCompile(`"` + name + `":[-+.0-9eE]+,`).FindStringIndex(doc)
	if loc == nil {
		tb.Fatalf("no numeric field %q in %.80s", name, doc)
	}
	return doc[:loc[0]] + doc[loc[1]:]
}

// FuzzPeerResult feeds arbitrary bytes to readResultsDoc, the read of
// a peer's GET /v1/results/{key} reply that Client.FetchResult runs.
// It must never panic or allocate past peerAllocBound; an accepted
// document fits maxFillBody, names the key asked for, holds at most
// maxFillResults results and decodes with json.Unmarshal to the same
// document. Seeds are a reply as the results endpoint writes it
// (compact, one real result, a trailing newline), the same reply with
// a result field missing and with one result too many, a list of empty
// results and a truncated reply.
func FuzzPeerResult(f *testing.F) {
	job := runner.STJob(config.BaselineExclusive(), "mcf", 2_000, 500)
	rs, err := job.Execute()
	if err != nil {
		f.Fatal(err)
	}
	key := job.Key()
	rec := httptest.NewRecorder()
	runner.WriteJSON(rec, 200, runner.ResultsDoc{Key: key, Results: rs})
	real := rec.Body.String()
	result, err := json.Marshal(rs[0])
	if err != nil {
		f.Fatal(err)
	}
	tooMany := `{"key":"` + key + `","results":[` + string(result) + strings.Repeat(","+string(result), maxFillResults) + `]}`
	for _, seed := range []string{
		real,
		withoutField(f, real, "IPC"),
		tooMany,
		`{"key":"` + key + `","results":[{},{},{}]}`,
		real[:len(real)/2],
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var rs []core.Result
		var err error
		if n := allocated(func() { rs, err = readResultsDoc(bytes.NewReader(body), key) }); n > peerAllocBound(len(body)) {
			t.Fatalf("%.120q: decoding %d bytes allocated %d, bound %d", body, len(body), n, peerAllocBound(len(body)))
		}
		if err != nil {
			if rs != nil {
				t.Fatalf("%.120q: rejected (%v) but returned %d results", body, err, len(rs))
			}
			return
		}
		if len(body) > maxFillBody {
			t.Fatalf("accepted a %d-byte body, over the %d-byte cap", len(body), maxFillBody)
		}
		if len(rs) > maxFillResults {
			t.Fatalf("%.120q: accepted %d results, more than %d", body, len(rs), maxFillResults)
		}
		checkMatchesUnmarshal(t, body, runner.ResultsDoc{Key: key, Results: rs})
	})
}

// FuzzPeerManifest feeds arbitrary bytes to the read of a peer's GET
// /v1/cluster/manifest reply that Client.Manifest runs. It must never
// panic or allocate past peerAllocBound; an accepted manifest fits
// maxManifestBody and decodes with json.Unmarshal to the same
// manifest. Seeds are a manifest as the endpoint writes it (compact,
// two keys, a trailing newline), an empty one, null keys, a key of the
// wrong type and a truncated manifest.
func FuzzPeerManifest(f *testing.F) {
	rec := httptest.NewRecorder()
	runner.WriteJSON(rec, 200, manifestDoc{Self: "http://a:1", Keys: []string{fillKey(0), fillKey(1)}})
	real := rec.Body.String()
	for _, seed := range []string{
		real,
		`{"self":"http://a:1","keys":[]}`,
		`{"self":"","keys":null}`,
		`{"self":"","keys":[1]}`,
		real[:len(real)/2],
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var doc manifestDoc
		var err error
		if n := allocated(func() { doc, err = readDoc(bytes.NewReader(body), maxManifestBody, manifestDecoder) }); n > peerAllocBound(len(body)) {
			t.Fatalf("%.120q: decoding %d bytes allocated %d, bound %d", body, len(body), n, peerAllocBound(len(body)))
		}
		if err != nil {
			if !reflect.DeepEqual(doc, manifestDoc{}) {
				t.Fatalf("%.120q: rejected (%v) but returned a manifest", body, err)
			}
			return
		}
		if len(body) > maxManifestBody {
			t.Fatalf("accepted a %d-byte body, over the %d-byte cap", len(body), maxManifestBody)
		}
		checkMatchesUnmarshal(t, body, doc)
	})
}

// FuzzShardReply feeds arbitrary bytes to readShardReply, the
// coordinator's read of a POST /v1/cluster/shard reply, for a one-job
// shard. It must never panic or allocate past peerAllocBound; an
// accepted reply fits the shard's cap, holds one result under the
// job's key and decodes with json.Unmarshal to the same reply; a
// rejected one yields no results. Seeds are a reply as the shard
// endpoint writes it, the same reply with a result field missing, a
// reply of 20,000 {} and a truncated reply.
func FuzzShardReply(f *testing.F) {
	jobs := []runner.Job{runner.STJob(config.BaselineExclusive(), "mcf", 2_000, 500)}
	out := runner.New(runner.Options{Workers: 1}).Run(context.Background(), jobs)
	rec := httptest.NewRecorder()
	runner.WriteJSON(rec, 200, shardResponse{Jobs: out})
	real := rec.Body.String()
	for _, seed := range []string{
		real,
		withoutField(f, real, "IPC"),
		`{"jobs":[{}` + strings.Repeat(`,{}`, 19_999) + `]}`,
		real[:len(real)/2],
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var reply []runner.JobResult
		var err error
		if n := allocated(func() { reply, err = readShardReply(bytes.NewReader(body), jobs) }); n > peerAllocBound(len(body)) {
			t.Fatalf("%.120q: decoding %d bytes allocated %d, bound %d", body, len(body), n, peerAllocBound(len(body)))
		}
		if err != nil {
			if reply != nil {
				t.Fatalf("%.120q: rejected (%v) but yielded %d results", body, err, len(reply))
			}
			return
		}
		if len(body) > maxJobResultBody {
			t.Fatalf("accepted a %d-byte reply to one job, over the %d-byte cap", len(body), maxJobResultBody)
		}
		if len(reply) != 1 || reply[0].Key != jobs[0].Key() {
			t.Fatalf("%.120q: accepted %d results for one job", body, len(reply))
		}
		checkMatchesUnmarshal(t, body, shardResponse{Jobs: reply})
	})
}
