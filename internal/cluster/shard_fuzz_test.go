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
// before it runs anything; it runs no simulation. It must never panic;
// an accepted body must hold at least one job, each passing Validate
// and carrying the registered config of its name; a rejected body must
// yield no jobs, so the handler runs nothing. Seeds are a valid shard,
// an empty one, and shards whose config asks for a 1 TB LLC, has a
// changed LLCLat, or has a name no registry knows.
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
	f.Fuzz(func(t *testing.T, body []byte) {
		jobs, err := decodeShard(bytes.NewReader(body), resolve)
		if err != nil {
			if jobs != nil {
				t.Fatalf("%.120q: rejected (%v) but yielded %d jobs", body, err, len(jobs))
			}
			return
		}
		if len(jobs) == 0 {
			t.Fatalf("%.120q: accepted with no jobs", body)
		}
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
