package cluster

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"catch/internal/config"
	"catch/internal/runner"
)

// FuzzShardRequest feeds arbitrary bytes to decodeShard, the POST
// /v1/cluster/shard body decoder and the checks handleShard makes
// before it runs anything; it runs no simulation. It must never panic
// or allocate past peerAllocBound; an accepted body must fit
// maxShardBody, decode with json.Unmarshal to the same jobs and hold
// at least one job, each passing Validate and carrying the registered
// config of its name, and the same body padded with spaces past
// maxShardBody must be rejected; a rejected body must yield no jobs,
// so the handler runs nothing. Seeds are a valid shard, an empty one,
// and shards whose config asks for a 1 TB LLC, has a changed LLCLat,
// or has a name no registry knows.
func FuzzShardRequest(f *testing.F) {
	resolve := testResolver()
	cfg, _ := resolve("nol2-catch")
	huge, changed, unknown := cfg, cfg, cfg
	huge.LLCSize = 1 << 40
	changed.LLCLat++
	unknown.Name = "nosuch"
	for _, c := range []config.SystemConfig{cfg, huge, changed, unknown} {
		body, err := json.Marshal(shardRequest{Jobs: []runner.Job{runner.STJob(c, "mcf", 5_000, 1_000)}})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	f.Add([]byte(`{"jobs":[]}`))
	decode := func(body []byte) ([]runner.Job, error) {
		return decodeShard(bytes.NewReader(body), resolve)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var jobs []runner.Job
		var err error
		if n := allocated(func() { jobs, err = decode(body) }); n > peerAllocBound(len(body)) {
			t.Fatalf("%.120q: decoding %d bytes allocated %d, bound %d", body, len(body), n, peerAllocBound(len(body)))
		}
		if err != nil {
			if jobs != nil {
				t.Fatalf("%.120q: rejected (%v) but yielded %d jobs", body, err, len(jobs))
			}
			return
		}
		if len(body) > maxShardBody {
			t.Fatalf("accepted a %d-byte body, over the %d-byte cap", len(body), maxShardBody)
		}
		if jobs, err := decode(padPast(body, maxShardBody)); err == nil || jobs != nil {
			t.Fatalf("%.120q padded past the cap: accepted %d jobs", body, len(jobs))
		}
		if len(jobs) == 0 {
			t.Fatalf("%.120q: accepted with no jobs", body)
		}
		checkMatchesUnmarshal(t, body, shardRequest{Jobs: jobs})
		for i := range jobs {
			if err := jobs[i].Validate(); err != nil {
				t.Fatalf("%.120q: accepted job %d does not validate: %v", body, i, err)
			}
			want, ok := resolve(jobs[i].Config.Name)
			if !ok || !reflect.DeepEqual(jobs[i].Config, want) {
				t.Fatalf("%.120q: accepted job %d carries config %q, not the registered one", body, i, jobs[i].Config.Name)
			}
		}
	})
}
