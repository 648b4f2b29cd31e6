package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"catch/internal/experiments"
	"catch/internal/runner"
	"catch/internal/workloads"
)

// Serve sizing: a fixed Poisson rate well below saturation on two
// CPUs, mostly hits on jobs primed during set-up, some fresh
// small-budget misses, and conditional result reads. The request mix
// and the primed-set size are assumed, not taken from recorded traffic
// (see README.md).
const (
	serveRate       = 100.0 // requests per second
	servePrimed     = 32
	serveMissFrac   = 0.10
	serveGetFrac    = 0.10
	serveHitInsts   = 4_000
	serveHitWarmup  = 2_000
	serveMissInsts  = 2_000
	serveMissWarmup = 1_000
	serveSetupReps  = 5
)

// serveReq is one scheduled request.
type serveReq struct {
	kind string // "hit", "miss" or "get"
	job  runner.Job
	hit  int // primed index for hit and get
}

// serveEnv is one running catchd: engine, disk-backed cache, HTTP
// server on loopback, and the primed jobs with their results.
type serveEnv struct {
	srv    *httptest.Server
	engine *runner.Engine
	dir    string
	primed []runner.Job
	bodies [][]byte // canonical JSON of each primed job's results
}

func (e *serveEnv) close() {
	e.srv.Close()
	_ = os.RemoveAll(e.dir) // scratch, removed again on exit
}

// serveJob draws one single-workload job from the registered configs
// and the study list.
func serveJob(rng *splitmix, insts, warmup int64) runner.Job {
	names := experiments.ConfigNames()
	cfg, _ := experiments.ConfigByName(names[rng.intn(len(names))])
	all := workloads.All()
	return runner.STJob(cfg, all[rng.intn(len(all))].WName, insts, warmup)
}

// newServeEnv starts the server and primes its cache.
func newServeEnv(r *run, n int) (*serveEnv, error) {
	dir := filepath.Join(r.dir, fmt.Sprintf("serve-%d", n))
	eng := runner.New(runner.Options{Workers: r.workers, Cache: runner.NewCache(dir)})
	srv := &runner.Server{Engine: eng, Resolve: experiments.ConfigByName}
	env := &serveEnv{srv: httptest.NewServer(srv.Handler()), engine: eng, dir: dir}
	rng := newSplitmix(r.seed ^ 0x5e4e)
	seen := make(map[string]bool)
	for len(env.primed) < servePrimed {
		j := serveJob(rng, serveHitInsts, serveHitWarmup)
		if !seen[j.Key()] {
			seen[j.Key()] = true
			env.primed = append(env.primed, j)
		}
	}
	out := eng.Run(context.Background(), env.primed)
	for i := range out {
		if out[i].Status != runner.StatusOK {
			env.close()
			return nil, fmt.Errorf("priming job %d: %s", i, out[i].Err)
		}
		raw, err := json.Marshal(out[i].Results)
		if err != nil {
			env.close()
			return nil, err
		}
		env.bodies = append(env.bodies, raw)
	}
	return env, nil
}

// serveSchedule draws the seeded arrival times and request mix. Each
// miss gets a distinct budget (serveMissInsts plus its miss number, so
// it stays near serveMissInsts), which makes its key fresh, and the misses
// cycle through the configs in order: construction cost differs by
// config, and a drawn config mix would move the miss median from seed
// to seed.
func serveSchedule(seed uint64, window time.Duration, primed int) ([]time.Duration, []serveReq) {
	rng := newSplitmix(seed ^ 0xa77)
	due := poissonSchedule(rng, serveRate, window)
	reqs := make([]serveReq, len(due))
	cfgs := experiments.ConfigNames()
	all := workloads.All()
	misses := 0
	for i := range reqs {
		u := rng.float64()
		switch {
		case u < serveMissFrac:
			cfg, _ := experiments.ConfigByName(cfgs[misses%len(cfgs)])
			misses++
			j := runner.STJob(cfg, all[rng.intn(len(all))].WName, serveMissInsts+int64(misses), serveMissWarmup)
			reqs[i] = serveReq{kind: "miss", job: j}
		case u < serveMissFrac+serveGetFrac:
			reqs[i] = serveReq{kind: "get", hit: rng.intn(primed)}
		default:
			reqs[i] = serveReq{kind: "hit", hit: rng.intn(primed)}
		}
	}
	return due, reqs
}

// runBody is the POST /v1/run body for j.
func runBody(j runner.Job) []byte {
	raw, _ := json.Marshal(runner.RunRequest{Config: j.Config.Name, Workload: j.Workloads[0], Insts: j.Insts, Warmup: j.Warmup})
	return raw
}

// send issues one request and checks its response.
func (e *serveEnv) send(c *http.Client, req serveReq) error {
	if req.kind == "get" {
		key := e.primed[req.hit].Key()
		hr, err := http.NewRequest(http.MethodGet, e.srv.URL+"/v1/results/"+key, nil)
		if err != nil {
			return err
		}
		hr.Header.Set("If-None-Match", `"`+key+`"`)
		resp, err := c.Do(hr)
		if err != nil {
			return err
		}
		body, err := io.ReadAll(resp.Body)
		_ = resp.Body.Close()
		if err != nil {
			return err
		}
		if resp.StatusCode != http.StatusNotModified || len(body) != 0 {
			return fmt.Errorf("conditional GET %s: %s with %d body bytes, want 304 and none", key[:12], resp.Status, len(body))
		}
		return nil
	}
	j := req.job
	if req.kind == "hit" {
		j = e.primed[req.hit]
	}
	resp, err := c.Post(e.srv.URL+"/v1/run", "application/json", bytes.NewReader(runBody(j)))
	if err != nil {
		return err
	}
	var jr runner.JobResult
	err = json.NewDecoder(resp.Body).Decode(&jr)
	_ = resp.Body.Close()
	if err != nil {
		return fmt.Errorf("%s: decode: %v", req.kind, err)
	}
	if resp.StatusCode != http.StatusOK || jr.Key != j.Key() || len(jr.Results) == 0 {
		return fmt.Errorf("%s: %s key %.12s want %.12s (%s)", req.kind, resp.Status, jr.Key, j.Key(), jr.Err)
	}
	if req.kind == "hit" {
		raw, err := json.Marshal(jr.Results)
		if err != nil || !bytes.Equal(raw, e.bodies[req.hit]) || !jr.Cached {
			return fmt.Errorf("hit %.12s: results differ from the primed ones (cached=%v)", jr.Key, jr.Cached)
		}
	}
	return nil
}

// runServe drives one catchd on loopback with an open-loop Poisson
// schedule for the window, timing each request from its due time.
func runServe(r *run) error {
	n := 0
	env, setupS, err := medianSetup(serveSetupReps, func() (*serveEnv, error) {
		n++
		return newServeEnv(r, n)
	}, (*serveEnv).close)
	if err != nil {
		return err
	}
	defer env.close()
	due, reqs := serveSchedule(r.seed, r.window, len(env.primed))
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: r.workers, MaxConnsPerHost: r.workers}}
	defer client.CloseIdleConnections()
	errs := make([]error, len(reqs))
	shots := openLoop(due, r.workers, newWallClock(), func(i int) bool {
		errs[i] = env.send(client, reqs[i])
		return errs[i] == nil
	})

	lat := map[string][]float64{}
	var lag []float64
	for i, s := range shots {
		r.expect(s.OK, "request %d (%s): %v", i, reqs[i].kind, errs[i])
		lat[reqs[i].kind] = append(lat[reqs[i].kind], ms(s.Latency()))
		lag = append(lag, ms(s.Lag()))
	}
	fmt.Printf("serve: %d requests at %.0f/s over %d connections\n", len(reqs), serveRate, r.workers)
	r.print("run_hit_p50_ms", at(lat["hit"], 0.5), "ms", len(lat["hit"]))
	r.print("run_hit_p99_ms", at(lat["hit"], 0.99), "ms", len(lat["hit"]))
	r.print("run_miss_p50_ms", at(lat["miss"], 0.5), "ms", len(lat["miss"]))
	r.print("run_miss_p90_ms", at(lat["miss"], 0.9), "ms", len(lat["miss"]))
	r.printDist("result_304_ms", lat["get"], "ms")
	r.printDist("loadgen_lag_ms", lag, "ms")
	r.report("setup_s", setupS, "s", serveSetupReps)
	r.report("compute_ms", at(lat["miss"], 0.5), "ms", len(lat["miss"]))
	r.report("cached_ms", at(lat["hit"], 0.5), "ms", len(lat["hit"]))
	r.report("cached_p90_ms", at(lat["hit"], 0.9), "ms", len(lat["hit"]))
	return nil
}
