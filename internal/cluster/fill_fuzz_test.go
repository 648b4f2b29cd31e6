package cluster

import (
	"bytes"
	"encoding/json"
	"slices"
	"strings"
	"testing"

	"catch/internal/config"
	"catch/internal/core"
	"catch/internal/runner"
)

// FuzzFillRequest feeds arbitrary bytes to decodeFill, the POST
// /v1/cluster/fill body decoder, and HandleFill, exactly as handleFill
// runs them, on a one-node Node. It must never panic or allocate past
// peerAllocBound; an accepted body must fit maxFillBody, decode with
// json.Unmarshal to the same document and carry a runner.ValidKey key
// and 1 to maxFillResults results, and that key must then be cached; a
// rejected body must leave the cache's key list unchanged. Seeds are a
// fill as Client.ReplicaFill writes it, the same fill with the
// "replica" field older nodes sent, with a result field missing, with
// a malformed key and with an empty result list, and one result too
// many.
func FuzzFillRequest(f *testing.F) {
	key := fillKey(0)
	job := runner.STJob(config.BaselineExclusive(), "mcf", 2_000, 500)
	rs, err := job.Execute()
	if err != nil {
		f.Fatal(err)
	}
	fill := func(key string, rs []core.Result) string {
		raw, err := json.Marshal(runner.ResultsDoc{Key: key, Results: rs})
		if err != nil {
			f.Fatal(err)
		}
		return string(raw)
	}
	real := fill(key, rs)
	var tooMany []core.Result
	for len(tooMany) <= maxFillResults {
		tooMany = append(tooMany, rs...)
	}
	for _, body := range []string{
		real,
		strings.TrimSuffix(real, "}") + `,"replica":true}`,
		withoutField(f, real, "IPC"),
		fill("not hex!", rs),
		fill(key, []core.Result{}),
		fill(key, tooMany),
	} {
		f.Add([]byte(body))
	}
	n := newFillNode(f)
	cache := n.opts.Engine.Cache()
	f.Fuzz(func(t *testing.T, body []byte) {
		before := cache.Keys()
		var req runner.ResultsDoc
		var err error
		if n := allocated(func() { req, err = decodeFill(bytes.NewReader(body)) }); n > peerAllocBound(len(body)) {
			t.Fatalf("%.120q: decoding %d bytes allocated %d, bound %d", body, len(body), n, peerAllocBound(len(body)))
		}
		if err == nil {
			checkMatchesUnmarshal(t, body, req)
			err = n.HandleFill(req.Key, req.Results)
		}
		if err != nil {
			if after := cache.Keys(); !slices.Equal(before, after) {
				t.Fatalf("%.120q: rejected (%v) but the cache went from %d to %d keys", body, err, len(before), len(after))
			}
			return
		}
		if len(body) > maxFillBody {
			t.Fatalf("accepted a %d-byte body, over the %d-byte cap", len(body), maxFillBody)
		}
		if !runner.ValidKey(req.Key) || len(req.Results) == 0 || len(req.Results) > maxFillResults {
			t.Fatalf("%.120q: accepted key %.80q with %d results", body, req.Key, len(req.Results))
		}
		if _, ok := cache.Get(req.Key); !ok {
			t.Fatalf("%.120q: accepted key %s is not in the cache", body, req.Key)
		}
	})
}
