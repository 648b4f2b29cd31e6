package cluster

import (
	"bytes"
	"io"
	"slices"
	"testing"

	"catch/internal/runner"
)

// FuzzFillRequest feeds arbitrary bytes to decodeFill, the POST
// /v1/cluster/fill body decoder, and HandleFill, exactly as handleFill
// runs them, on a one-node Node. It must never panic; an accepted body
// must fit maxFillBody and carry a runner.ValidKey key and non-empty
// results, and that key must then be cached; a rejected body must
// leave the cache's key list unchanged.
// Seeds are a valid fill, the same fill with the "replica" field older
// nodes sent, a malformed key and an empty result list.
func FuzzFillRequest(f *testing.F) {
	key := fillKey(0)
	for _, body := range []string{
		`{"key":"` + key + `","results":[{"Workload":"mcf","IPC":1}]}`,
		`{"key":"` + key + `","results":[{"Workload":"mcf","IPC":1}],"replica":true}`,
		`{"key":"not hex!","results":[{"Workload":"mcf","IPC":1}]}`,
		`{"key":"` + key + `","results":[]}`,
	} {
		f.Add([]byte(body))
	}
	n := newFillNode(f)
	cache := n.opts.Engine.Cache()
	f.Fuzz(func(t *testing.T, body []byte) {
		before := cache.Keys()
		req, err := decodeFill(nil, io.NopCloser(bytes.NewReader(body)))
		if err == nil {
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
		if !runner.ValidKey(req.Key) || len(req.Results) == 0 {
			t.Fatalf("%.120q: accepted key %.80q with %d results", body, req.Key, len(req.Results))
		}
		if _, ok := cache.Get(req.Key); !ok {
			t.Fatalf("%.120q: accepted key %s is not in the cache", body, req.Key)
		}
	})
}
