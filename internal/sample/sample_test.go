package sample

import (
	"reflect"
	"strings"
	"testing"

	"catch/internal/config"
	"catch/internal/core"
	"catch/internal/trace"
	"catch/internal/workloads"
)

func testWorkload(t *testing.T, name string) *trace.Workload {
	t.Helper()
	w, ok := workloads.ByName(name)
	if !ok {
		t.Fatalf("workload %s not found", name)
	}
	return &w
}

func TestSpecValidate(t *testing.T) {
	cases := []struct {
		name    string
		spec    Spec
		insts   int64
		wantErr string
	}{
		{"ok", Spec{Interval: 1000, K: 3}, 10_000, ""},
		{"k equals intervals", Spec{Interval: 1000, K: 10}, 10_000, ""},
		{"zero interval", Spec{Interval: 0, K: 3}, 10_000, "interval must be positive"},
		{"negative interval", Spec{Interval: -5, K: 3}, 10_000, "interval must be positive"},
		{"indivisible", Spec{Interval: 3000, K: 2}, 10_000, "evenly divide"},
		{"zero k", Spec{Interval: 1000, K: 0}, 10_000, "k must be positive"},
		{"k too large", Spec{Interval: 1000, K: 11}, 10_000, "exceeds"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.spec.Validate(tc.insts)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("Validate: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Validate = %v, want error containing %q", err, tc.wantErr)
			}
		})
	}
}

// synthFeatures builds a deterministic pseudo-random feature matrix.
func synthFeatures(n, dims int, seed uint64) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		v := make([]float64, dims)
		for d := range v {
			v[d] = float64(splitmix64(&seed)%1000) / 250
		}
		out[i] = v
	}
	return out
}

// TestClusterDeterministic pins the clustering's seed stability: the
// same (vectors, k, seed) input yields the same partition, every
// cluster is non-empty, and sizes sum to the interval count.
func TestClusterDeterministic(t *testing.T) {
	vecs := synthFeatures(40, FeatureDim, 7)
	a := Cluster(vecs, 5, 12345)
	b := Cluster(synthFeatures(40, FeatureDim, 7), 5, 12345)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same input clustered differently:\n a %+v\n b %+v", a, b)
	}
	total := 0
	for c, size := range a.Sizes {
		if size == 0 {
			t.Errorf("cluster %d is empty", c)
		}
		total += size
		rep := a.Reps[c]
		if rep < 0 || rep >= len(vecs) {
			t.Fatalf("cluster %d representative %d out of range", c, rep)
		}
		if a.Assign[rep] != c {
			t.Errorf("cluster %d representative %d assigned to cluster %d", c, rep, a.Assign[rep])
		}
	}
	if total != len(vecs) {
		t.Errorf("cluster sizes sum to %d, want %d", total, len(vecs))
	}
}

// TestClusterDegenerate covers k=1 and identical points (zero
// variance), which must not divide by zero or loop forever.
func TestClusterDegenerate(t *testing.T) {
	flat := make([][]float64, 8)
	for i := range flat {
		flat[i] = make([]float64, FeatureDim)
	}
	cl := Cluster(flat, 3, 9)
	total := 0
	for _, s := range cl.Sizes {
		if s == 0 {
			t.Error("empty cluster on identical points")
		}
		total += s
	}
	if total != len(flat) {
		t.Errorf("sizes sum to %d, want %d", total, len(flat))
	}
	one := Cluster(synthFeatures(6, 4, 3), 1, 0)
	if one.Sizes[0] != 6 {
		t.Errorf("k=1 cluster size = %d, want 6", one.Sizes[0])
	}
}

// TestPlannerExactWhenKEqualsN is the sampling analogue of the
// snapshot round-trip golden test: with one cluster per interval the
// planner simulates every interval, so the "extrapolation" must
// reproduce the full RunST result exactly — same cycles, same cache
// and DRAM counters, same TACT and criticality totals. Only the
// instantaneous CriticalPCs gauge (read at one representative rather
// than at the stream end) and the SampleMeta block are exempt.
func TestPlannerExactWhenKEqualsN(t *testing.T) {
	const insts, warmup, interval = 6_000, 3_000, 500
	w := testWorkload(t, "mcf")
	for _, cfg := range []config.SystemConfig{
		config.BaselineExclusive(),
		config.WithCATCH(config.BaselineExclusive(), "catch-sample"),
	} {
		t.Run(cfg.Name, func(t *testing.T) {
			p := NewPlanner(nil, nil)
			spec := Spec{Interval: interval, K: int(insts / interval)}
			got, err := p.Run(cfg, w, insts, warmup, spec)
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if got.Sample == nil {
				t.Fatal("sampled result carries no SampleMeta")
			}
			if got.Sample.MeasuredInsts != insts {
				t.Errorf("MeasuredInsts = %d, want %d", got.Sample.MeasuredInsts, insts)
			}

			m, err := p.traces.Materialize(w, warmup+insts)
			if err != nil {
				t.Fatalf("materialize: %v", err)
			}
			want := core.NewSystem(cfg).RunST(m.NewReplay(), insts, warmup)

			got.Sample = nil
			got.CriticalPCs, want.CriticalPCs = 0, 0
			if !reflect.DeepEqual(got, want) {
				t.Errorf("k=n sampled result diverged from full simulation:\n got  %+v\n want %+v", got, want)
			}
		})
	}
}

// TestPlannerDeterministic pins that two planners given the same
// inputs produce identical results, including the error bars.
func TestPlannerDeterministic(t *testing.T) {
	const insts, warmup = 6_000, 2_000
	w := testWorkload(t, "libquantum")
	cfg := config.WithCATCH(config.BaselineExclusive(), "catch-sample")
	spec := Spec{Interval: 500, K: 3}
	a, err := NewPlanner(nil, nil).Run(cfg, w, insts, warmup, spec)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	b, err := NewPlanner(nil, nil).Run(cfg, w, insts, warmup, spec)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same sampled job produced different results:\n a %+v\n b %+v", a, b)
	}
	if a.Insts != insts {
		t.Errorf("extrapolated Insts = %d, want %d", a.Insts, insts)
	}
	if a.Sample.MeasuredInsts*2 > insts {
		t.Errorf("measured %d of %d instructions — sampling simulated more than half the run",
			a.Sample.MeasuredInsts, insts)
	}
}

// TestPlannerProfileShared pins the grid economics: two configs of the
// same workload share one profile.
func TestPlannerProfileShared(t *testing.T) {
	const insts, warmup = 4_000, 1_000
	w := testWorkload(t, "mcf")
	p := NewPlanner(nil, nil)
	spec := Spec{Interval: 500, K: 2}
	cfgA := config.BaselineExclusive()
	cfgB := config.WithCATCH(config.BaselineExclusive(), "catch-sample")
	if _, err := p.Run(cfgA, w, insts, warmup, spec); err != nil {
		t.Fatalf("Run A: %v", err)
	}
	if _, err := p.Run(cfgB, w, insts, warmup, spec); err != nil {
		t.Fatalf("Run B: %v", err)
	}
	ps := p.Stats()
	if ps.Profiled != 1 || ps.ProfileHits != 1 {
		t.Errorf("profile stats = %+v, want exactly one build and one hit", ps)
	}
}
