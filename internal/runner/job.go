// Package runner is the experiment-execution engine: it expands
// (config × workload) grids into deterministic jobs, shards them across
// a bounded worker pool, memoizes results in a content-addressed cache
// with singleflight coalescing, and serves the whole thing over HTTP
// (cmd/catchd).
//
// A simulation is a pure function of (config, workloads, insts,
// warmup), so a job's identity is a stable hash of exactly those
// inputs and results are safe to cache and to share between duplicate
// in-flight requests.
package runner

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime/debug"
	"strings"

	"catch/internal/config"
	"catch/internal/core"
	"catch/internal/interconnect"
	"catch/internal/sample"
	"catch/internal/trace"
	"catch/internal/workloads"
)

// Job is one unit of simulation work: a full system configuration plus
// one workload (single-thread run) or several (one per core,
// multi-programmed run).
type Job struct {
	Config    config.SystemConfig `json:"config"`
	Workloads []string            `json:"workloads"`
	Insts     int64               `json:"insts"`
	Warmup    int64               `json:"warmup"`
	// Sample, when set, resolves the job by representative-interval
	// sampling instead of full simulation. It is part of the job's
	// identity (sampled and exact results cache under different keys);
	// nil keeps the key byte-identical to pre-sampling jobs.
	Sample *SampleSpec `json:"sample,omitempty"`
}

// SampleSpec mirrors sample.Spec with JSON tags for the job key.
type SampleSpec struct {
	Interval int64 `json:"interval"`
	K        int   `json:"k"`
}

// STJob builds a single-thread job.
func STJob(cfg config.SystemConfig, workload string, insts, warmup int64) Job {
	return Job{Config: cfg, Workloads: []string{workload}, Insts: insts, Warmup: warmup}
}

// MPJob builds a multi-programmed job (one workload per core).
func MPJob(cfg config.SystemConfig, names []string, insts, warmup int64) Job {
	return Job{Config: cfg, Workloads: append([]string(nil), names...), Insts: insts, Warmup: warmup}
}

// Key returns the job's content address: a hex SHA-256 over the
// canonical JSON encoding of (config name+params, workloads, insts,
// warmup). Canonicalization sorts object keys recursively, so the key
// is stable across struct field reordering and across processes. The
// encoding is written in one pass (appendCanonicalJob), byte-identical
// to json.Marshal with every object's keys re-sorted.
//
//catch:keyfn
func (j Job) Key() string {
	sum := sha256.Sum256(appendCanonicalJob(make([]byte, 0, keyBufSize), &j))
	return hex.EncodeToString(sum[:])
}

// keyBufSize holds a registered config's job in one allocation: its
// canonical JSON is about 1.1 KB, and 1.2 KB with eight workloads,
// Sample and Convert set.
const keyBufSize = 1536

// Validate checks that every workload name resolves, that the job fits
// its config's ring (one core per workload, one core per ring stop) and
// that the budgets are sane, without running anything.
func (j *Job) Validate() error {
	if len(j.Workloads) == 0 {
		return fmt.Errorf("job has no workloads")
	}
	if stops := interconnect.New(j.Config.RingStops, 0).Stops; len(j.Workloads) > stops {
		return fmt.Errorf("job has %d workloads, more than the %d ring stops of config %q",
			len(j.Workloads), stops, j.Config.Name)
	}
	if j.Insts <= 0 {
		return fmt.Errorf("job insts must be positive, got %d", j.Insts)
	}
	if j.Warmup < 0 {
		return fmt.Errorf("job warmup must be non-negative, got %d", j.Warmup)
	}
	if j.Sample != nil {
		if len(j.Workloads) != 1 {
			return fmt.Errorf("sampled jobs run a single workload, got %d", len(j.Workloads))
		}
		if err := (sample.Spec{Interval: j.Sample.Interval, K: j.Sample.K}).Validate(j.Insts); err != nil {
			return err
		}
	}
	_, err := resolveWorkloads(j.Workloads)
	return err
}

// resolveWorkloads maps workload names to their definitions. It is the
// single lookup shared by validation, execution and the batch
// scheduler, so the three can never disagree about which names
// resolve; every unknown name is reported at once.
func resolveWorkloads(names []string) ([]trace.Workload, error) {
	ws := make([]trace.Workload, len(names))
	var unknown []string
	for k, name := range names {
		w, ok := workloads.ByName(name)
		if !ok {
			unknown = append(unknown, fmt.Sprintf("%q", name))
			continue
		}
		ws[k] = w
	}
	if len(unknown) > 0 {
		return nil, fmt.Errorf("unknown workload(s): %s", strings.Join(unknown, ", "))
	}
	return ws, nil
}

// gens resolves the job's workload names to fresh generators.
func (j *Job) gens() ([]trace.Generator, error) {
	ws, err := resolveWorkloads(j.Workloads)
	if err != nil {
		return nil, err
	}
	out := make([]trace.Generator, len(ws))
	for k := range ws {
		out[k] = ws[k].NewGen()
	}
	return out, nil
}

// PanicError is a recovered job panic: the panic value plus the
// goroutine stack at the point of recovery, so a crash inside a
// simulation is diagnosable from the JobResult instead of taking down
// the worker pool.
type PanicError struct {
	Value any
	Stack []byte
}

func (e *PanicError) Error() string { return fmt.Sprintf("job panicked: %v", e.Value) }

// Execute runs the job on a fresh private core.System and returns one
// Result per workload. A fresh system per job keeps results
// deterministic (no warm state leaks between jobs) and keeps the
// non-goroutine-safe System private to the calling worker.
func (j *Job) Execute() (rs []core.Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			rs, err = nil, &PanicError{Value: p, Stack: debug.Stack()}
		}
	}()
	gens, err := j.gens()
	if err != nil {
		return nil, err
	}
	cfg := j.Config
	if len(gens) > 1 && cfg.Cores < len(gens) {
		cfg.Cores = len(gens)
	}
	sys := core.NewSystem(cfg)
	if len(gens) == 1 {
		return []core.Result{sys.RunST(gens[0], j.Insts, j.Warmup)}, nil
	}
	return sys.RunMP(gens, j.Insts, j.Warmup), nil
}

// Grid is a (config × workload) experiment sweep.
type Grid struct {
	Configs   []config.SystemConfig
	Workloads []string
	Insts     int64
	Warmup    int64
}

// Jobs expands the grid into jobs in deterministic order (configs
// outer, workloads inner).
func (g *Grid) Jobs() []Job {
	jobs := make([]Job, 0, len(g.Configs)*len(g.Workloads))
	for _, cfg := range g.Configs {
		for _, w := range g.Workloads {
			jobs = append(jobs, STJob(cfg, w, g.Insts, g.Warmup))
		}
	}
	return jobs
}
