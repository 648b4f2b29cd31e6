package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"time"

	"catch/internal/cluster"
	"catch/internal/core"
	"catch/internal/runner"
	"catch/internal/sample"
	"catch/internal/trace"
	"catch/internal/workloads"
)

// layerMetrics are the per-layer metrics of the traced run (README.md
// maps each onto the end-to-end metric it should move).
var layerMetrics = map[string]string{
	"trace.gen_ns_per_inst":      "ns",
	"trace.materialize_ms":       "ms",
	"trace.replay_ns_per_inst":   "ns",
	"core.new_system_us":         "us",
	"core.warmup_ns_per_inst":    "ns",
	"core.measure_ns_per_inst":   "ns",
	"core.run_mp_ns_per_inst":    "ns",
	"core.run_batch_ns_per_inst": "ns",
	"core.snapshot_ms":           "ms",
	"core.restore_ms":            "ms",
	"cpu.self_ns_per_inst":       "ns",
	"cache.load_ns":              "ns",
	"cache.store_ns":             "ns",
	"cache.fetch_ns":             "ns",
	"cache.calls_per_inst":       "count",
	"crit.retire_ns":             "ns",
	"tact.dispatch_self_ns":      "ns",
	"tact.issue_ns":              "ns",
	"tact.issues_per_kinst":      "count",
	"sample.cold_run_ms":         "ms",
	"sample.warm_run_ms":         "ms",
	"sample.profiles_built":      "count",
	"sample.snapshots_built":     "count",
	"sample.measured_frac":       "frac",
	"runner.job_key_us":          "us",
	"runner.cache_mem_get_us":    "us",
	"runner.cache_disk_get_us":   "us",
	"runner.cache_disk_put_us":   "us",
	"runner.cache_hit_ratio":     "frac",
	"runner.executed":            "count",
	"http.run_hit_us":            "us",
	"http.result_304_us":         "us",
	"http.loopback_us":           "us",
	"loadgen.lag_p99_ms":         "ms",
	"cluster.ring_owners_ns":     "ns",
	"cluster.lookup_mem_us":      "us",
	"cluster.lookup_peer_ms":     "ms",
	"cluster.shard_rpc_ms":       "ms",
	"cluster.replica_fill_ms":    "ms",
	"cluster.fills_per_job":      "count",
	"cluster.hints_queued":       "count",
	"cluster.heal_fills":         "count",
	"cluster.repair_fills":       "count",
	"trace.self_residual_ms":     "ms",
	"trace.overhead_pct":         "%",
}

// Traced-run sizing: how many jobs the snapshot and sampling probes
// take from the grid, and how often each in-process call is repeated.
const (
	tracedSnapJobs   = 5
	tracedSampleJobs = 15
	tracedCallReps   = 200
	tracedLoadWindow = time.Second
)

// tracer holds the traced run's span log and hook counters.
type tracer struct {
	r       *run
	log     *spanLog
	timerNs float64
	st      hooks

	newSystemUs                        []float64
	warmupNs, measureNs, runMPNs       int64
	warmupInsts, measureInsts, mpInsts int64
}

// runTraced replays the sweep's scalar grid through the phase methods
// with every layer boundary timed, probes the remaining layers with
// in-process calls, and prints the per-layer metrics. Spans go to
// spansPath.
func runTraced(r *run, spansPath string) error {
	g, err := sweepSetup(r.seed)
	if err != nil {
		return err
	}
	jobs := g.jobs
	t := &tracer{r: r, log: newSpanLog(), timerNs: timerCost()}
	t.st.phase = r.seed % hookEvery

	untraced, d, _ := timedPass(runner.Options{Workers: 1}, jobs)
	untracedMs := ms(d)
	var ref string
	r.checkPass("untraced", untraced, &ref)

	root := t.log.begin("sweep.traced", 0, 0)
	traced := make([]runner.JobResult, len(jobs))
	for i := range jobs {
		rs, err := t.replay(jobs[i], root, int64(i+1))
		traced[i] = runner.JobResult{Job: jobs[i], Key: jobs[i].Key(), Results: rs, Status: runner.StatusOK}
		if !r.expect(err == nil, "traced job %d: %v", i, err) {
			traced[i].Status, traced[i].Err = runner.StatusFailed, err.Error()
		}
	}
	t.log.end(root)
	r.checkPass("traced", traced, &ref)
	fmt.Printf("digest sweep %s\n", ref)

	spans := t.log.snapshot()
	tracedMs := float64(spans[root-1].End-spans[root-1].Start) / 1e6
	self := selfTimes(spans)
	layered := 0.0
	for _, name := range sortedKeys(self) {
		r.print("self."+name, ms(self[name]), "ms", 1)
		if name != "sweep.traced" {
			layered += ms(self[name])
		}
	}
	r.print("sweep_traced_s", tracedMs/1000, "s", 1)
	r.print("sweep_untraced_1w_s", untracedMs/1000, "s", 1)
	r.report("trace.self_residual_ms", tracedMs-layered, "ms", len(spans))
	r.report("trace.overhead_pct", 100*(tracedMs-untracedMs)/untracedMs, "%", 1)
	t.reportKernel()

	if err := t.probeBatch(jobs, traced); err != nil {
		return err
	}
	if err := t.probeSnapshots(jobs); err != nil {
		return err
	}
	if err := t.probeSampling(jobs); err != nil {
		return err
	}
	if err := t.probeRunner(jobs, traced); err != nil {
		return err
	}
	if err := t.probeHTTP(); err != nil {
		return err
	}
	if err := t.probeCluster(); err != nil {
		return err
	}
	return t.log.write(spansPath)
}

// replay runs one job as Job.Execute does, but through the phase
// methods with spans around each and the hooks installed.
func (t *tracer) replay(j runner.Job, parent, req int64) ([]core.Result, error) {
	sp := t.log.begin("trace.new_gen", parent, req)
	var gens []trace.Generator
	for _, name := range j.Workloads {
		w, ok := workloads.ByName(name)
		if !ok {
			t.log.end(sp)
			return nil, fmt.Errorf("unknown workload %q", name)
		}
		gens = append(gens, w.NewGen())
	}
	t.log.end(sp)
	cfg := j.Config
	if len(gens) > 1 && cfg.Cores < len(gens) {
		cfg.Cores = len(gens)
	}
	sp = t.log.begin("core.new_system", parent, req)
	t0 := now()
	sys := core.NewSystem(cfg)
	t.newSystemUs = append(t.newSystemUs, float64(now()-t0)/1e3)
	t.log.end(sp)

	// Mixes run bare: only the ST phases are hooked, so RunMP's time
	// carries no hook overhead.
	if len(gens) > 1 {
		sp = t.log.begin("core.run_mp", parent, req)
		t0 := now()
		rs := sys.RunMP(gens, j.Insts, j.Warmup)
		t.runMPNs += now() - t0
		t.mpInsts += int64(len(gens)) * (j.Insts + j.Warmup)
		t.log.end(sp)
		return rs, nil
	}
	t.st.wrap(sys)
	gen := &timedGen{Generator: gens[0], h: &t.st}
	sp = t.log.begin("core.warmup", parent, req)
	t0 = now()
	sys.WarmupST(gen, j.Warmup)
	t.warmupNs += now() - t0
	t.warmupInsts += j.Warmup
	t.log.end(sp)
	sp = t.log.begin("core.begin_measure", parent, req)
	win := sys.BeginMeasure()
	t.log.end(sp)
	sp = t.log.begin("core.measure", parent, req)
	t0 = now()
	sys.StepST(j.Insts)
	t.measureNs += now() - t0
	t.measureInsts += j.Insts
	t.log.end(sp)
	sp = t.log.begin("core.end_measure", parent, req)
	res := sys.EndMeasure(win)
	t.log.end(sp)
	return []core.Result{res}, nil
}

// reportKernel derives the kernel layers' per-instruction costs from
// the phase timings and the sampled hook timers.
func (t *tracer) reportKernel() {
	r, h, tn := t.r, &t.st, t.timerNs
	insts := float64(t.warmupInsts + t.measureInsts)
	hooksNs := h.load.total(tn) + h.store.total(tn) + h.fetch.total(tn) + h.retire.total(tn) +
		h.dispatch.total(tn) + h.issue.total(tn)
	stepNs := float64(t.warmupNs + t.measureNs)
	n := int(h.load.timed + h.store.timed + h.fetch.timed + h.retire.timed + h.dispatch.timed + h.issue.timed)
	r.print("trace.timer_ns", tn, "ns", 2000)
	r.report("trace.gen_ns_per_inst", h.gen.mean(tn), "ns", int(h.gen.timed))
	r.report("core.new_system_us", median(t.newSystemUs), "us", len(t.newSystemUs))
	r.report("core.warmup_ns_per_inst", float64(t.warmupNs)/float64(t.warmupInsts), "ns", int(t.warmupInsts))
	r.report("core.measure_ns_per_inst", float64(t.measureNs)/float64(t.measureInsts), "ns", int(t.measureInsts))
	r.report("core.run_mp_ns_per_inst", float64(t.runMPNs)/float64(t.mpInsts), "ns", int(t.mpInsts))
	r.report("cpu.self_ns_per_inst", (stepNs-hooksNs-h.gen.total(tn))/insts, "ns", n)
	r.report("cache.load_ns", h.load.mean(tn), "ns", int(h.load.timed))
	r.report("cache.store_ns", h.store.mean(tn), "ns", int(h.store.timed))
	r.report("cache.fetch_ns", h.fetch.mean(tn), "ns", int(h.fetch.timed))
	r.report("cache.calls_per_inst", float64(h.load.calls+h.store.calls+h.fetch.calls)/insts, "count", int(insts))
	r.report("crit.retire_ns", h.retire.mean(tn), "ns", int(h.retire.timed))
	r.report("tact.dispatch_self_ns", h.dispatch.mean(tn), "ns", int(h.dispatch.timed))
	r.report("tact.issue_ns", h.issue.mean(tn), "ns", int(h.issue.timed))
	r.report("tact.issues_per_kinst", 1000*float64(h.issue.calls)/insts, "count", int(insts))
}

// stWorkloads returns the grid's distinct ST workloads in order.
func stWorkloads(jobs []runner.Job) []trace.Workload {
	var out []trace.Workload
	seen := make(map[string]bool)
	for i := range jobs {
		if len(jobs[i].Workloads) != 1 || seen[jobs[i].Workloads[0]] {
			continue
		}
		seen[jobs[i].Workloads[0]] = true
		w, _ := workloads.ByName(jobs[i].Workloads[0])
		out = append(out, w)
	}
	return out
}

// probeBatch materializes and replays each ST workload's trace and runs
// the fig13 configs over it in lock-step, checking every result against
// the traced scalar replay.
func (t *tracer) probeBatch(jobs []runner.Job, traced []runner.JobResult) error {
	r := t.r
	want := make(map[string][]byte)
	for i := range jobs {
		if len(jobs[i].Workloads) == 1 && traced[i].Status == runner.StatusOK {
			raw, err := json.Marshal(traced[i].Results[0])
			if err != nil {
				return err
			}
			want[jobs[i].Config.Name+"/"+jobs[i].Workloads[0]] = raw
		}
	}
	sp := t.log.begin("probe.batch", 0, 0)
	defer t.log.end(sp)
	cfgs := fig13Configs()
	store := trace.NewStore("")
	var matMs []float64
	var replayNs, replayInsts, batchNs, batchInsts int64
	for _, w := range stWorkloads(jobs) {
		w := w
		total := int64(sweepWarmup + sweepInsts)
		t0 := now()
		m, err := store.Materialize(&w, total)
		if err != nil {
			return err
		}
		matMs = append(matMs, float64(now()-t0)/1e6)
		rep := m.NewReplay()
		var in trace.Inst
		t0 = now()
		for rep.Next(&in) {
		}
		replayNs += now() - t0
		replayInsts += m.Len()
		t0 = now()
		rs, err := core.RunBatch(m, cfgs, sweepInsts, sweepWarmup)
		batchNs += now() - t0
		batchInsts += int64(len(cfgs)) * total
		if !r.expect(err == nil, "RunBatch %s: %v", w.WName, err) {
			continue
		}
		for k := range rs {
			raw, err := json.Marshal(rs[k])
			r.expect(err == nil && bytes.Equal(raw, want[cfgs[k].Name+"/"+w.WName]),
				"RunBatch %s on %s differs from the scalar replay", w.WName, cfgs[k].Name)
		}
	}
	r.report("trace.materialize_ms", median(matMs), "ms", len(matMs))
	r.report("trace.replay_ns_per_inst", float64(replayNs)/float64(replayInsts), "ns", int(replayInsts))
	r.report("core.run_batch_ns_per_inst", float64(batchNs)/float64(batchInsts), "ns", int(batchInsts))
	return nil
}

// probeSnapshots times warm-state snapshot and restore on the first ST
// jobs of the grid.
func (t *tracer) probeSnapshots(jobs []runner.Job) error {
	sp := t.log.begin("probe.snapshot", 0, 0)
	defer t.log.end(sp)
	var snapMs, restoreMs []float64
	for i := range jobs {
		if len(snapMs) == tracedSnapJobs {
			break
		}
		j := jobs[i]
		if len(j.Workloads) != 1 {
			continue
		}
		w, _ := workloads.ByName(j.Workloads[0])
		sys := core.NewSystem(j.Config)
		sys.WarmupST(w.NewGen(), j.Warmup)
		t0 := now()
		img, err := sys.Snapshot()
		snapMs = append(snapMs, float64(now()-t0)/1e6)
		if err != nil {
			return err
		}
		fresh := core.NewSystem(j.Config)
		t0 = now()
		err = fresh.Restore(img)
		restoreMs = append(restoreMs, float64(now()-t0)/1e6)
		t.r.expect(err == nil, "restore %s/%s: %v", j.Config.Name, j.Workloads[0], err)
	}
	t.r.report("core.snapshot_ms", median(snapMs), "ms", len(snapMs))
	t.r.report("core.restore_ms", median(restoreMs), "ms", len(restoreMs))
	return nil
}

// probeSampling runs the first ST jobs through a fresh planner twice:
// the first run of a job builds its profile and warm snapshot, the
// second reuses both.
func (t *tracer) probeSampling(jobs []runner.Job) error {
	r := t.r
	sp := t.log.begin("probe.sample", 0, 0)
	defer t.log.end(sp)
	p := sample.NewPlanner(trace.NewStore(""), sample.NewStore(""))
	spec := sample.Spec{Interval: sweepInsts / runner.DefaultSampleIntervals, K: runner.DefaultSampleK}
	var coldMs, warmMs []float64
	var measured, total int64
	for i := range jobs {
		if len(coldMs) == tracedSampleJobs {
			break
		}
		j := jobs[i]
		if len(j.Workloads) != 1 {
			continue
		}
		w, _ := workloads.ByName(j.Workloads[0])
		for pass, into := range []*[]float64{&coldMs, &warmMs} {
			t0 := now()
			res, err := p.Run(j.Config, &w, j.Insts, j.Warmup, spec)
			*into = append(*into, float64(now()-t0)/1e6)
			if !r.expect(err == nil && res.Sample != nil, "sampled %s/%s: %v", j.Config.Name, j.Workloads[0], err) {
				continue
			}
			if pass == 0 {
				measured += res.Sample.MeasuredInsts
				total += res.Sample.TotalInsts
			}
		}
	}
	r.report("sample.cold_run_ms", median(coldMs), "ms", len(coldMs))
	r.report("sample.warm_run_ms", median(warmMs), "ms", len(warmMs))
	r.report("sample.profiles_built", float64(p.Stats().Profiled), "count", len(coldMs))
	r.report("sample.snapshots_built", float64(p.Snapshots().Stats().Built), "count", len(coldMs))
	r.report("sample.measured_frac", float64(measured)/float64(total), "frac", len(coldMs))
	return nil
}

// probeRunner times job keying and the result cache's memory and disk
// layers on the traced grid's results.
func (t *tracer) probeRunner(jobs []runner.Job, traced []runner.JobResult) error {
	r := t.r
	sp := t.log.begin("probe.runner", 0, 0)
	defer t.log.end(sp)
	var keyUs, putUs, memUs, diskUs []float64
	c := runner.NewCache(filepath.Join(r.dir, "trace-cache"))
	for i := range jobs {
		t0 := now()
		key := jobs[i].Key()
		keyUs = append(keyUs, float64(now()-t0)/1e3)
		if traced[i].Status != runner.StatusOK {
			continue
		}
		t0 = now()
		c.PutDisk(key, traced[i].Results)
		putUs = append(putUs, float64(now()-t0)/1e3)
		c.PutMem(key, traced[i].Results)
		t0 = now()
		_, okMem := c.GetMem(key)
		memUs = append(memUs, float64(now()-t0)/1e3)
		t0 = now()
		_, okDisk := c.GetDisk(key)
		diskUs = append(diskUs, float64(now()-t0)/1e3)
		r.expect(okMem && okDisk, "cache round trip of job %d: mem %v disk %v", i, okMem, okDisk)
	}
	r.report("runner.job_key_us", median(keyUs), "us", len(keyUs))
	r.report("runner.cache_disk_put_us", median(putUs), "us", len(putUs))
	r.report("runner.cache_mem_get_us", median(memUs), "us", len(memUs))
	r.report("runner.cache_disk_get_us", median(diskUs), "us", len(diskUs))
	return nil
}

// probeHTTP times catchd's handlers in-process (no socket) and over
// loopback, then runs a short open-loop burst to measure generator lag.
func (t *tracer) probeHTTP() error {
	r := t.r
	sp := t.log.begin("probe.http", 0, 0)
	defer t.log.end(sp)
	env, err := newServeEnv(r, 0)
	if err != nil {
		return err
	}
	defer env.close()
	h := env.srv.Config.Handler
	var hitUs, notModUs, loopUs []float64
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: r.workers}}
	defer client.CloseIdleConnections()
	for i := 0; i < tracedCallReps; i++ {
		k := i % len(env.primed)
		j := env.primed[k]
		req := httptest.NewRequest(http.MethodPost, "/v1/run", bytes.NewReader(runBody(j)))
		rec := httptest.NewRecorder()
		t0 := now()
		h.ServeHTTP(rec, req)
		hitUs = append(hitUs, float64(now()-t0)/1e3)
		r.expect(rec.Code == http.StatusOK, "in-process hit: %d", rec.Code)

		req = httptest.NewRequest(http.MethodGet, "/v1/results/"+j.Key(), nil)
		req.Header.Set("If-None-Match", `"`+j.Key()+`"`)
		rec = httptest.NewRecorder()
		t0 = now()
		h.ServeHTTP(rec, req)
		notModUs = append(notModUs, float64(now()-t0)/1e3)
		r.expect(rec.Code == http.StatusNotModified, "in-process conditional GET: %d", rec.Code)

		t0 = now()
		err := env.send(client, serveReq{kind: "hit", hit: k})
		loopUs = append(loopUs, float64(now()-t0)/1e3)
		r.expect(err == nil, "loopback hit: %v", err)
	}
	r.report("http.run_hit_us", median(hitUs), "us", len(hitUs))
	r.report("http.result_304_us", median(notModUs), "us", len(notModUs))
	r.report("http.loopback_us", median(loopUs), "us", len(loopUs))

	due, reqs := serveSchedule(r.seed, tracedLoadWindow, len(env.primed))
	shots := openLoop(due, r.workers, newWallClock(), func(i int) bool { return env.send(client, reqs[i]) == nil })
	var lag []float64
	for i, s := range shots {
		r.expect(s.OK, "burst request %d (%s) failed", i, reqs[i].kind)
		lag = append(lag, ms(s.Lag()))
	}
	r.report("loadgen.lag_p99_ms", at(lag, 0.99), "ms", len(lag))
	eng := env.engine
	r.report("runner.cache_hit_ratio", eng.Cache().Stats().HitRate(), "frac", len(shots))
	r.report("runner.executed", float64(eng.Executed()), "count", len(shots))
	return nil
}

// probeCluster times the ring, the tiered lookup, shard and fill RPCs,
// and one fail/heal cycle of a fresh three-node cluster.
func (t *tracer) probeCluster() error {
	r := t.r
	sp := t.log.begin("probe.cluster", 0, 0)
	defer t.log.end(sp)
	env, err := newClusterEnv()
	if err != nil {
		return err
	}
	defer env.close()
	ctx := context.Background()
	jobs := clusterJobs(r.seed, 0, 0)
	out := env.nodes[0].RunSweep(ctx, jobs, nil)
	keys := env.checkSweep(r, "traced sweep", jobs, out, &clusterStats{})
	r.report("cluster.fills_per_job", env.counter("catch_cluster_replica_fills_total")/float64(len(jobs)), "count", len(jobs))

	ring := env.nodes[0].Ring()
	t0 := now()
	const owners = 10_000
	for i := 0; i < owners; i++ {
		ring.Owners(keys[i%len(keys)], clusterReplicas, nil)
	}
	r.report("cluster.ring_owners_ns", float64(now()-t0)/owners, "ns", owners)

	// The coordinator caches every result it gathers, so only keys whose
	// non-owner is another node exercise the peer tier. A key drawn twice
	// is already promoted to memory on its second lookup.
	var peerMs, memUs []float64
	looked := make(map[string]bool)
	for _, key := range keys {
		i := env.nonOwner(key)
		if i == 0 || looked[key] {
			continue
		}
		looked[key] = true
		node := env.nodes[i]
		for _, want := range []string{"peer", "mem"} {
			t0 := now()
			_, tier, ok := node.Lookup(ctx, key, false)
			d := float64(now() - t0)
			r.expect(ok && tier == want, "lookup %.12s: tier %q ok %v, want %q", key, tier, ok, want)
			if want == "peer" {
				peerMs = append(peerMs, d/1e6)
			} else {
				memUs = append(memUs, d/1e3)
			}
		}
	}
	r.report("cluster.lookup_peer_ms", median(peerMs), "ms", len(peerMs))
	r.report("cluster.lookup_mem_us", median(memUs), "us", len(memUs))

	client := cluster.NewClient(cluster.ClientOptions{})
	var shardMs, fillMs []float64
	for i := range jobs {
		if out[i].Status != runner.StatusOK {
			continue
		}
		t0 := now()
		rs, err := client.RunShard(ctx, env.urls[1], jobs[i:i+1], false)
		shardMs = append(shardMs, float64(now()-t0)/1e6)
		r.expect(err == nil && len(rs) == 1 && rs[0].Status == runner.StatusOK, "shard RPC %d: %v", i, err)
		t0 = now()
		err = client.ReplicaFill(ctx, env.urls[2], keys[i], out[i].Results)
		fillMs = append(fillMs, float64(now()-t0)/1e6)
		r.expect(err == nil, "replica fill %d: %v", i, err)
	}
	r.report("cluster.shard_rpc_ms", median(shardMs), "ms", len(shardMs))
	r.report("cluster.replica_fill_ms", median(fillMs), "ms", len(fillMs))

	before := [3]float64{env.counter("catch_cluster_hints_queued_total"),
		env.counter("catch_cluster_hints_drained_total"), env.counter("catch_cluster_repair_fills_total")}
	httpClient := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: r.workers}}
	defer httpClient.CloseIdleConnections()
	env.cycle(r, httpClient, 1, &clusterStats{})
	r.report("cluster.hints_queued", env.counter("catch_cluster_hints_queued_total")-before[0], "count", 1)
	r.report("cluster.heal_fills", env.counter("catch_cluster_hints_drained_total")-before[1], "count", 1)
	r.report("cluster.repair_fills", env.counter("catch_cluster_repair_fills_total")-before[2], "count", 1)
	return nil
}
