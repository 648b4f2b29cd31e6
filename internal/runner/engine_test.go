package runner

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"catch/internal/config"
	"catch/internal/core"
	"catch/internal/telemetry"
)

const (
	tInsts  = 10_000
	tWarmup = 4_000
)

func testJobs() []Job {
	g := Grid{
		Configs: []config.SystemConfig{
			config.BaselineExclusive(),
			config.WithCATCH(config.NoL2(config.BaselineExclusive(), 6656*config.KB, 13, "nol2"), "nol2-catch"),
		},
		Workloads: []string{"hmmer", "mcf", "tpcc"},
		Insts:     tInsts,
		Warmup:    tWarmup,
	}
	return g.Jobs()
}

func resultJSON(t *testing.T, rs []JobResult) []string {
	t.Helper()
	out := make([]string, len(rs))
	for i := range rs {
		if rs[i].Err != "" {
			t.Fatalf("job %d failed: %s", i, rs[i].Err)
		}
		b, err := json.Marshal(rs[i].Results)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		out[i] = string(b)
	}
	return out
}

// TestDeterministicAcrossWorkerCounts is the guard against shared
// mutable state: the same grid must produce byte-identical Result JSON
// at 1, 2 and 8 workers, and across repeated runs.
func TestDeterministicAcrossWorkerCounts(t *testing.T) {
	jobs := testJobs()
	ref := resultJSON(t, New(Options{Workers: 1}).Run(context.Background(), jobs))
	for _, workers := range []int{1, 2, 8} {
		got := resultJSON(t, New(Options{Workers: workers}).Run(context.Background(), jobs))
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("workers=%d job %d (%s on %v) diverged from sequential run",
					workers, i, jobs[i].Config.Name, jobs[i].Workloads)
			}
		}
	}
}

func TestResultsStayInJobOrder(t *testing.T) {
	jobs := testJobs()
	rs := New(Options{Workers: 4}).Run(context.Background(), jobs)
	for i := range rs {
		if rs[i].Job.Config.Name != jobs[i].Config.Name ||
			rs[i].Results[0].Workload != jobs[i].Workloads[0] {
			t.Fatalf("job %d result out of order: got %s/%s", i,
				rs[i].Job.Config.Name, rs[i].Results[0].Workload)
		}
	}
}

func TestUnknownWorkloadFailsWithoutAbortingSweep(t *testing.T) {
	jobs := []Job{
		STJob(config.BaselineExclusive(), "no-such-workload", tInsts, tWarmup),
		STJob(config.BaselineExclusive(), "hmmer", tInsts, tWarmup),
	}
	rs := New(Options{Workers: 2}).Run(context.Background(), jobs)
	if rs[0].Err == "" || !strings.Contains(rs[0].Err, "no-such-workload") {
		t.Fatalf("bad job error = %q", rs[0].Err)
	}
	if rs[1].Err != "" || len(rs[1].Results) != 1 {
		t.Fatalf("good job was dragged down: %+v", rs[1])
	}
	if err := FirstError(rs); err == nil {
		t.Fatal("FirstError missed the failure")
	}
}

func TestTimeoutAndRetries(t *testing.T) {
	e := New(Options{Workers: 1, Timeout: 10 * time.Millisecond, Retries: 2})
	var calls atomic.Int32
	block := make(chan struct{})
	e.simulate = func(*Job) ([]core.Result, error) {
		calls.Add(1)
		<-block
		return []core.Result{{}}, nil
	}
	rs := e.Run(context.Background(), []Job{STJob(config.BaselineExclusive(), "hmmer", tInsts, tWarmup)})
	close(block)
	if rs[0].Err == "" || !strings.Contains(rs[0].Err, "timed out") {
		t.Fatalf("err = %q, want timeout", rs[0].Err)
	}
	if !strings.Contains(rs[0].Err, "attempt 3/3") {
		t.Fatalf("err = %q, want exhausted retries", rs[0].Err)
	}
	if n := calls.Load(); n != 3 {
		t.Fatalf("simulate called %d times, want 3", n)
	}
}

func TestRetrySucceedsAfterTransientFailure(t *testing.T) {
	e := New(Options{Workers: 1, Retries: 1})
	var calls int
	e.simulate = func(*Job) ([]core.Result, error) {
		calls++
		if calls == 1 {
			return nil, errors.New("transient")
		}
		return []core.Result{{Workload: "ok"}}, nil
	}
	rs := e.Run(context.Background(), []Job{STJob(config.BaselineExclusive(), "hmmer", tInsts, tWarmup)})
	if rs[0].Err != "" || rs[0].Results[0].Workload != "ok" {
		t.Fatalf("retry did not recover: %+v", rs[0])
	}
}

func TestCancelledContextStopsScheduling(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rs := New(Options{Workers: 2}).Run(ctx, testJobs())
	for i := range rs {
		if rs[i].Err == "" {
			t.Fatalf("job %d ran under a cancelled context", i)
		}
	}
}

func TestFlatten(t *testing.T) {
	jobs := testJobs()[:2]
	rs, err := Flatten(New(Options{Workers: 2}).Run(context.Background(), jobs))
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 2 || rs[0].Workload != "hmmer" || rs[1].Workload != "mcf" {
		t.Fatalf("flatten order wrong: %v", rs)
	}
}

func TestMPJobRunsOnePerCore(t *testing.T) {
	cfg := config.BaselineExclusive()
	cfg.Cores = 2
	job := MPJob(cfg, []string{"hmmer", "mcf"}, tInsts, tWarmup)
	rs := New(Options{Workers: 1}).Run(context.Background(), []Job{job})
	if rs[0].Err != "" {
		t.Fatal(rs[0].Err)
	}
	if len(rs[0].Results) != 2 ||
		rs[0].Results[0].Workload != "hmmer" || rs[0].Results[1].Workload != "mcf" {
		t.Fatalf("MP job results wrong: %+v", rs[0].Results)
	}
}

// TestEngineMetricsCountRetriesAndFailures exercises the engine's
// registered series directly: one job that succeeds on its second
// attempt, one that exhausts its attempts.
func TestEngineMetricsCountRetriesAndFailures(t *testing.T) {
	reg := telemetry.NewRegistry()
	e := New(Options{Workers: 1, Retries: 1, Metrics: reg})
	var tries atomic.Int32
	e.simulate = func(j *Job) ([]core.Result, error) {
		if j.Workloads[0] == "mcf" && tries.Add(1) == 1 {
			return nil, errors.New("transient")
		}
		if j.Workloads[0] == "tpcc" {
			return nil, errors.New("permanent")
		}
		return []core.Result{{Workload: j.Workloads[0]}}, nil
	}
	cfg := config.BaselineExclusive()
	out := e.Run(context.Background(), []Job{
		STJob(cfg, "mcf", 1000, 0),
		STJob(cfg, "tpcc", 1000, 0),
	})
	if out[0].Err != "" {
		t.Fatalf("mcf should retry to success: %+v", out[0])
	}
	if out[1].Err == "" {
		t.Fatal("tpcc should fail")
	}
	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		"catch_engine_jobs_completed_total 1",
		"catch_engine_jobs_failed_total 1",
		"catch_engine_jobs_retried_total 2", // mcf's second try + tpcc's retry
		"catch_engine_jobs_inflight 0",
		"catch_engine_job_seconds_count 2",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q\n%s", want, text)
		}
	}
}

// TestEngineResumesFromCache is the checkpointing contract: run 1
// completes a prefix, and a fresh engine over the same cache directory
// executes exactly the remaining jobs and returns the full, identical
// sweep.
func TestEngineResumesFromCache(t *testing.T) {
	jobs := testJobs()
	dir := filepath.Join(t.TempDir(), "cache")
	e1 := New(Options{Workers: 2, Cache: NewCache(dir)})
	first := e1.Run(context.Background(), jobs[:4]) // partial sweep
	if err := FirstError(first); err != nil {
		t.Fatal(err)
	}

	// Fresh process: a new engine and cache handle over the same dir.
	// The first 4 jobs come from the cache; only the last 2 execute.
	e2 := New(Options{Workers: 2, Cache: NewCache(dir)})
	second := e2.Run(context.Background(), jobs)
	if err := FirstError(second); err != nil {
		t.Fatal(err)
	}
	if got := e2.Executed(); got != uint64(len(jobs)-4) {
		t.Fatalf("resumed run executed %d jobs, want %d", got, len(jobs)-4)
	}
	for i := 0; i < 4; i++ {
		if !second[i].Cached || second[i].Status != StatusOK {
			t.Fatalf("job %d not resumed: %+v", i, second[i])
		}
	}
	// Resumed results match the originals byte-for-byte, and the whole
	// sweep matches a clean run.
	for i := range first {
		a, _ := json.Marshal(first[i].Results)
		b, _ := json.Marshal(second[i].Results)
		if string(a) != string(b) {
			t.Fatalf("job %d diverged across resume", i)
		}
	}
	ref := flattenJSON(t, New(Options{Workers: 2}), context.Background(), jobs)
	if string(flatBytes(t, second)) != string(ref) {
		t.Fatal("resumed sweep diverged from a clean run")
	}
	if n := len(NewCache(dir).Keys()); n != len(jobs) {
		t.Fatalf("cache now holds %d results, want %d", n, len(jobs))
	}
}

// TestCancelMidSweepMarksCanceledAndResumeCompletes: cancelling
// mid-sweep yields partial results whose undone jobs are Canceled (not
// Failed), and a fresh engine re-running the sweep over the same cache
// completes exactly the remaining set.
func TestCancelMidSweepMarksCanceledAndResumeCompletes(t *testing.T) {
	jobs := testJobs()
	cacheDir := filepath.Join(t.TempDir(), "cache")

	e1 := New(Options{Workers: 1, Cache: NewCache(cacheDir)})
	ctx, cancel := context.WithCancel(context.Background())
	ran := 0
	inner := e1.simulate
	e1.simulate = func(j *Job) ([]core.Result, error) {
		ran++
		if ran == 2 {
			cancel() // interrupt after the second job starts
		}
		return inner(j)
	}
	first := e1.Run(ctx, jobs)

	var done, canceled int
	for i := range first {
		switch first[i].Status {
		case StatusOK:
			done++
		case StatusCanceled:
			canceled++
		default:
			t.Fatalf("job %d: status %q (err %q), want ok or canceled",
				i, first[i].Status, first[i].Err)
		}
	}
	if done == 0 || canceled == 0 || done+canceled != len(jobs) {
		t.Fatalf("done=%d canceled=%d of %d", done, canceled, len(jobs))
	}

	if n := len(NewCache(cacheDir).Keys()); n != done {
		t.Fatalf("cache holds %d results, sweep reported %d done", n, done)
	}
	e2 := New(Options{Workers: 2, Cache: NewCache(cacheDir)})
	second := e2.Run(context.Background(), jobs)
	if err := FirstError(second); err != nil {
		t.Fatal(err)
	}
	if got := e2.Executed(); got != uint64(canceled) {
		t.Fatalf("resume executed %d jobs, want exactly the %d canceled ones", got, canceled)
	}
	for i := range first {
		if first[i].Status == StatusOK && !second[i].Cached {
			t.Fatalf("job %d finished before the cancel but was not served from the cache", i)
		}
	}
	ref := flattenJSON(t, New(Options{Workers: 2}), context.Background(), jobs)
	if string(flatBytes(t, second)) != string(ref) {
		t.Fatal("resumed sweep diverged from a clean run")
	}
}

// TestDrainStopsFeedingAndMarksCanceled: running jobs finish, unfed
// jobs come back canceled with ErrDraining.
func TestDrainStopsFeedingAndMarksCanceled(t *testing.T) {
	jobs := testJobs()
	e := New(Options{Workers: 1})
	inner := e.simulate
	first := true
	e.simulate = func(j *Job) ([]core.Result, error) {
		if first { // drain mid-flight, from inside the first running job
			first = false
			e.Drain()
		}
		return inner(j)
	}
	rs := e.Run(context.Background(), jobs)
	if !e.Draining() {
		t.Fatal("Draining() false after Drain")
	}
	var ok, canceled int
	for i := range rs {
		switch rs[i].Status {
		case StatusOK:
			ok++
		case StatusCanceled:
			if !strings.Contains(rs[i].Err, ErrDraining.Error()) {
				t.Fatalf("job %d err = %q", i, rs[i].Err)
			}
			canceled++
		default:
			t.Fatalf("job %d status %q", i, rs[i].Status)
		}
	}
	if ok == 0 || canceled == 0 {
		t.Fatalf("ok=%d canceled=%d: drain either killed running jobs or stopped nothing", ok, canceled)
	}
}

func TestPanicCapturesStackAndLogsOnce(t *testing.T) {
	var logs []string
	e := New(Options{
		Workers: 1, Retries: 2,
		Logf: func(format string, args ...any) {
			logs = append(logs, strings.Split(strings.TrimSpace(format), "\n")[0])
		},
	})
	e.simulate = func(*Job) ([]core.Result, error) { panic("boom at cycle 42") }
	rs := e.Run(context.Background(), []Job{STJob(config.BaselineExclusive(), "hmmer", tInsts, tWarmup)})
	if rs[0].Status != StatusFailed || !strings.Contains(rs[0].Err, "job panicked: boom at cycle 42") {
		t.Fatalf("result = %+v", rs[0])
	}
	if !strings.Contains(rs[0].Stack, "runner.") {
		t.Fatalf("no stack captured: %q", rs[0].Stack)
	}
	// Three attempts panicked; the stack is logged exactly once.
	if len(logs) != 1 {
		t.Fatalf("panic logged %d times, want 1: %v", len(logs), logs)
	}
}
