package cluster

import (
	"bytes"
	"encoding/json"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"catch/internal/config"
	"catch/internal/runner"
)

// peerAllocBound is the most a peer-response decoder may allocate for
// an n-byte body: 64 bytes per input byte plus 64 KB, room for
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

// FuzzPeerResult feeds arbitrary bytes to decodeResultDoc, the decoder
// of a peer's GET /v1/results/{key} response that Client.FetchResult
// runs. It must never panic or allocate past peerAllocBound; an
// accepted document holds at most maxFillResults results and survives
// json.Marshal and a second decode unchanged. Seeds are a response as
// the results endpoint writes it (indented, one real result), the same
// with one result too many, a list of empty results, null results and
// a truncated document.
func FuzzPeerResult(f *testing.F) {
	job := runner.STJob(config.BaselineExclusive(), "mcf", 2_000, 500)
	rs, err := job.Execute()
	if err != nil {
		f.Fatal(err)
	}
	real, err := json.MarshalIndent(map[string]any{"key": job.Key(), "results": rs}, "", "  ")
	if err != nil {
		f.Fatal(err)
	}
	result, err := json.Marshal(rs[0])
	if err != nil {
		f.Fatal(err)
	}
	tooMany := `{"key":"` + job.Key() + `","results":[` + string(result) + strings.Repeat(","+string(result), maxFillResults) + `]}`
	for _, seed := range []string{
		string(real) + "\n",
		tooMany,
		`{"key":"k","results":[{},{},{}]}`,
		`{"key":"k","results":null}`,
		string(real[:len(real)/2]),
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var doc resultDoc
		var err error
		if n := allocated(func() { doc, err = decodeResultDoc(bytes.NewReader(body)) }); n > peerAllocBound(len(body)) {
			t.Fatalf("%.120q: decoding %d bytes allocated %d, bound %d", body, len(body), n, peerAllocBound(len(body)))
		}
		if err != nil {
			if !reflect.DeepEqual(doc, resultDoc{}) {
				t.Fatalf("%.120q: rejected (%v) but returned a document", body, err)
			}
			return
		}
		if len(doc.Results) > maxFillResults {
			t.Fatalf("%.120q: accepted %d results, more than %d", body, len(doc.Results), maxFillResults)
		}
		raw, err := json.Marshal(doc)
		if err != nil {
			t.Fatalf("%.120q: accepted document does not marshal: %v", body, err)
		}
		back, err := decodeResultDoc(bytes.NewReader(raw))
		if err != nil || !reflect.DeepEqual(doc, back) {
			t.Fatalf("%.120q: accepted document changes in a marshal/decode round trip (%v)", body, err)
		}
	})
}

// FuzzPeerManifest feeds arbitrary bytes to decodeManifest, the
// decoder of a peer's GET /v1/cluster/manifest response that
// Client.Manifest runs. It must never panic or allocate past
// peerAllocBound; an accepted manifest survives json.Marshal and a
// second decode unchanged. Seeds are a manifest as the endpoint writes
// it (indented, two keys), an empty one, null keys, a key of the wrong
// type and a truncated manifest.
func FuzzPeerManifest(f *testing.F) {
	real, err := json.MarshalIndent(manifestDoc{Self: "http://a:1", Keys: []string{fillKey(0), fillKey(1)}}, "", "  ")
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range []string{
		string(real) + "\n",
		`{"self":"http://a:1","keys":[]}`,
		`{"self":"","keys":null}`,
		`{"keys":[1]}`,
		string(real[:len(real)/2]),
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var doc manifestDoc
		var err error
		if n := allocated(func() { doc, err = decodeManifest(bytes.NewReader(body)) }); n > peerAllocBound(len(body)) {
			t.Fatalf("%.120q: decoding %d bytes allocated %d, bound %d", body, len(body), n, peerAllocBound(len(body)))
		}
		if err != nil {
			if !reflect.DeepEqual(doc, manifestDoc{}) {
				t.Fatalf("%.120q: rejected (%v) but returned a manifest", body, err)
			}
			return
		}
		raw, err := json.Marshal(doc)
		if err != nil {
			t.Fatalf("%.120q: accepted manifest does not marshal: %v", body, err)
		}
		back, err := decodeManifest(bytes.NewReader(raw))
		if err != nil || !reflect.DeepEqual(doc, back) {
			t.Fatalf("%.120q: accepted manifest changes in a marshal/decode round trip (%v)", body, err)
		}
	})
}
