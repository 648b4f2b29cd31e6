// Black-box tests (package trace_test) so the replay-equivalence suite
// can iterate the real workload registry, which itself imports trace.
package trace_test

import (
	"reflect"
	"sync"
	"testing"

	"catch/internal/trace"
	"catch/internal/workloads"
)

// TestReplayMatchesFreshGen proves the memoization contract for every
// registered workload: a replayed generator yields the exact Inst
// sequence, ValueAt answers and PrewarmRegions of a fresh workloadGen.
func TestReplayMatchesFreshGen(t *testing.T) {
	const n = 2_000
	store := trace.NewStore("")
	for _, w := range workloads.All() {
		w := w
		t.Run(w.WName, func(t *testing.T) {
			m, err := store.Materialize(&w, n)
			if err != nil {
				t.Fatal(err)
			}
			if m.Name() != w.WName || m.Category() != w.WCategory {
				t.Fatalf("materialized identity = (%s, %s), want (%s, %s)",
					m.Name(), m.Category(), w.WName, w.WCategory)
			}
			fresh := w.NewGen()
			r := m.NewReplay()
			var want, got trace.Inst
			for i := 0; i < n; i++ {
				if !fresh.Next(&want) || !r.Next(&got) {
					t.Fatalf("stream ended at %d", i)
				}
				if want != got {
					t.Fatalf("inst %d: replay %+v, fresh %+v", i, got, want)
				}
				// Probe ValueAt with the addresses the workload actually
				// touches (plus a shifted miss probe): replay and fresh
				// generator must agree on both the value and coverage.
				if want.IsMem() {
					for _, a := range [...]uint64{want.Addr, want.Addr + 1<<40} {
						wv, wok := fresh.(trace.ValueSource).ValueAt(a)
						gv, gok := r.ValueAt(a)
						if wv != gv || wok != gok {
							t.Fatalf("ValueAt(%#x): replay (%d, %v), fresh (%d, %v)", a, gv, gok, wv, wok)
						}
					}
				}
			}
			wantPW := fresh.(trace.Prewarmer).PrewarmRegions()
			if gotPW := r.PrewarmRegions(); !reflect.DeepEqual(gotPW, wantPW) {
				t.Fatalf("PrewarmRegions: replay %v, fresh %v", gotPW, wantPW)
			}
		})
	}
}

// TestReplayExhaustionAndReset pins the one deliberate divergence from
// workload generators: a replay is finite.
func TestReplayExhaustionAndReset(t *testing.T) {
	w, _ := workloads.ByName("mcf")
	m, err := trace.NewStore("").Materialize(&w, 100)
	if err != nil {
		t.Fatal(err)
	}
	r := m.NewReplay()
	var in trace.Inst
	for i := 0; i < 100; i++ {
		if !r.Next(&in) {
			t.Fatalf("exhausted at %d, want 100", i)
		}
	}
	if r.Next(&in) {
		t.Fatal("Next returned true past the recording's end")
	}
	r.Reset()
	var first trace.Inst
	if !r.Next(&first) {
		t.Fatal("Next after Reset returned false")
	}
	if first != m.Insts()[0] {
		t.Fatalf("Reset did not rewind: got %+v, want %+v", first, m.Insts()[0])
	}
}

// TestReplayNextAllocs is the steady-state zero-allocation guard for
// the replay hot path (the static counterpart is the catchlint
// hotpath-noalloc check on the //catch:hotpath annotation).
func TestReplayNextAllocs(t *testing.T) {
	w, _ := workloads.ByName("hmmer")
	m, err := trace.NewStore("").Materialize(&w, 4_096)
	if err != nil {
		t.Fatal(err)
	}
	r := m.NewReplay()
	var in trace.Inst
	allocs := testing.AllocsPerRun(10_000, func() {
		if !r.Next(&in) {
			r.Reset()
		}
	})
	if allocs != 0 {
		t.Fatalf("replay Next allocates %.1f times per call, want 0", allocs)
	}
}

// TestStoreCoalescing proves concurrent requests for one key share a
// single recording and a single in-memory copy, on a zero-value store.
func TestStoreCoalescing(t *testing.T) {
	var store trace.Store
	w, _ := workloads.ByName("mcf")
	const callers = 8
	ms := make([]*trace.Materialized, callers)
	var wg sync.WaitGroup
	wg.Add(callers)
	for k := 0; k < callers; k++ {
		go func(k int) {
			defer wg.Done()
			m, err := store.Materialize(&w, 1_000)
			if err != nil {
				t.Error(err)
				return
			}
			ms[k] = m
		}(k)
	}
	wg.Wait()
	for k := 1; k < callers; k++ {
		if ms[k] != ms[0] {
			t.Fatalf("caller %d got a different Materialized copy", k)
		}
	}
}

// TestMaterializeRejectsBadLength covers the argument guard.
func TestMaterializeRejectsBadLength(t *testing.T) {
	w, _ := workloads.ByName("mcf")
	if _, err := trace.NewStore("").Materialize(&w, 0); err == nil {
		t.Fatal("Materialize(0) succeeded, want error")
	}
}
