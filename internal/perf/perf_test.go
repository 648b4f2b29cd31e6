package perf

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: catch
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkSimBaseline 	     334	   7325909 ns/op	  13650196 instrs/s	 3599922 B/op	      49 allocs/op
BenchmarkSimCATCH-8  	     196	  12249358 ns/op	   8163700 instrs/s	 3676927 B/op	      74 allocs/op
BenchmarkSimMP       	      10	 102030405 ns/op	 5000000 B/op	     120 allocs/op
--- BENCH: BenchmarkSimBaseline
    bench_test.go:30: some log line
PASS
ok  	catch	6.806s
`

func TestParse(t *testing.T) {
	rep, err := Parse(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	if rep.GoOS != "linux" || rep.GoArch != "amd64" || rep.Pkg != "catch" {
		t.Fatalf("header: %+v", rep)
	}
	if !strings.Contains(rep.CPU, "Xeon") {
		t.Fatalf("cpu: %q", rep.CPU)
	}
	if len(rep.Results) != 3 {
		t.Fatalf("want 3 results, got %d: %+v", len(rep.Results), rep.Results)
	}
	b := rep.Results[0]
	if b.Name != "BenchmarkSimBaseline" || b.Runs != 334 {
		t.Fatalf("first result: %+v", b)
	}
	if b.NsPerOp != 7325909 || b.InstrsPerSec != 13650196 {
		t.Fatalf("metrics: %+v", b)
	}
	if b.BytesPerOp != 3599922 || b.AllocsPerOp != 49 {
		t.Fatalf("mem metrics: %+v", b)
	}
	// GOMAXPROCS suffix is stripped.
	if rep.Results[1].Name != "BenchmarkSimCATCH" {
		t.Fatalf("suffix not stripped: %q", rep.Results[1].Name)
	}
	// A result without the custom instrs/s metric still parses.
	if rep.Results[2].Name != "BenchmarkSimMP" || rep.Results[2].InstrsPerSec != 0 {
		t.Fatalf("third result: %+v", rep.Results[2])
	}
}

func TestJSONRoundTrip(t *testing.T) {
	rep, err := Parse(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	f, err := writeTemp(t, buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	got, err := Load(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Results) != len(rep.Results) || got.CPU != rep.CPU {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, rep)
	}
}

func TestCompare(t *testing.T) {
	base := Report{Results: []Result{
		{Name: "BenchmarkSimBaseline", InstrsPerSec: 10_000_000},
		{Name: "BenchmarkSimCATCH", InstrsPerSec: 5_000_000},
		{Name: "BenchmarkSimMP", NsPerOp: 100_000_000},
		{Name: "BenchmarkRemoved", InstrsPerSec: 1},
	}}

	// Within tolerance: an 8% throughput drop passes a 10% gate.
	cur := Report{Results: []Result{
		{Name: "BenchmarkSimBaseline", InstrsPerSec: 9_200_000},
		{Name: "BenchmarkSimCATCH", InstrsPerSec: 5_500_000},
		{Name: "BenchmarkSimMP", NsPerOp: 105_000_000},
		{Name: "BenchmarkNew", InstrsPerSec: 1},
	}}
	if regs := Compare(base, cur, 0.10); len(regs) != 0 {
		t.Fatalf("unexpected regressions: %v", regs)
	}

	// Beyond tolerance: a 20% drop (instrs/s) and a 2x slowdown (ns/op)
	// both fail.
	cur = Report{Results: []Result{
		{Name: "BenchmarkSimBaseline", InstrsPerSec: 8_000_000},
		{Name: "BenchmarkSimCATCH", InstrsPerSec: 5_000_000},
		{Name: "BenchmarkSimMP", NsPerOp: 200_000_000},
	}}
	regs := Compare(base, cur, 0.10)
	if len(regs) != 2 {
		t.Fatalf("want 2 regressions, got %v", regs)
	}
	if regs[0].Name != "BenchmarkSimBaseline" || regs[0].Metric != "throughput" {
		t.Fatalf("first regression: %+v", regs[0])
	}
	if regs[1].Name != "BenchmarkSimMP" {
		t.Fatalf("second regression: %+v", regs[1])
	}
	if s := regs[0].String(); !strings.Contains(s, "throughput") {
		t.Fatalf("String: %q", s)
	}
}

func TestMedians(t *testing.T) {
	// Five samples of one benchmark (as from -count=5) with one slow
	// outlier, interleaved with a single-sample benchmark.
	rep := Report{CPU: "test", Results: []Result{
		{Name: "BenchmarkSimBaseline", Runs: 100, NsPerOp: 10, InstrsPerSec: 1000, AllocsPerOp: 5},
		{Name: "BenchmarkSimMP", Runs: 7, NsPerOp: 70},
		{Name: "BenchmarkSimBaseline", Runs: 100, NsPerOp: 11, InstrsPerSec: 900, AllocsPerOp: 5},
		{Name: "BenchmarkSimBaseline", Runs: 100, NsPerOp: 55, InstrsPerSec: 200, AllocsPerOp: 5},
		{Name: "BenchmarkSimBaseline", Runs: 100, NsPerOp: 9, InstrsPerSec: 1100, AllocsPerOp: 5},
		{Name: "BenchmarkSimBaseline", Runs: 100, NsPerOp: 12, InstrsPerSec: 950, AllocsPerOp: 5},
	}}
	got := rep.Medians()
	if got.CPU != "test" {
		t.Fatalf("header lost: %+v", got)
	}
	if len(got.Results) != 2 {
		t.Fatalf("want 2 collapsed results, got %+v", got.Results)
	}
	b := got.Results[0]
	if b.Name != "BenchmarkSimBaseline" || b.Runs != 500 {
		t.Fatalf("first result: %+v", b)
	}
	// The outlier (55 ns, 200 instrs/s) must not be the reported value.
	if b.NsPerOp != 11 || b.InstrsPerSec != 950 || b.AllocsPerOp != 5 {
		t.Fatalf("medians: %+v", b)
	}
	if got.Results[1].Name != "BenchmarkSimMP" || got.Results[1].NsPerOp != 70 {
		t.Fatalf("single-sample result changed: %+v", got.Results[1])
	}

	// Even sample count: median is the mean of the middle two.
	even := Report{Results: []Result{
		{Name: "B", Runs: 1, NsPerOp: 10},
		{Name: "B", Runs: 1, NsPerOp: 20},
		{Name: "B", Runs: 1, NsPerOp: 40},
		{Name: "B", Runs: 1, NsPerOp: 80},
	}}
	if m := even.Medians().Results[0].NsPerOp; m != 30 {
		t.Fatalf("even median = %v, want 30", m)
	}
}

func TestDeltas(t *testing.T) {
	base := Report{Results: []Result{
		{Name: "BenchmarkSimBaseline", InstrsPerSec: 10_000_000},
		{Name: "BenchmarkSimMP", NsPerOp: 100},
		{Name: "BenchmarkRemoved", InstrsPerSec: 1},
	}}
	cur := Report{Results: []Result{
		{Name: "BenchmarkSimMP", NsPerOp: 80},
		{Name: "BenchmarkSimBaseline", InstrsPerSec: 9_000_000},
		{Name: "BenchmarkNew", InstrsPerSec: 1},
	}}
	ds := Deltas(base, cur)
	if len(ds) != 2 {
		t.Fatalf("want 2 deltas (common benchmarks only), got %v", ds)
	}
	if ds[0].Name != "BenchmarkSimBaseline" || ds[0].Pct > -9.9 || ds[0].Pct < -10.1 {
		t.Fatalf("first delta: %+v", ds[0])
	}
	// ns/op 100 -> 80 is a +25% throughput improvement.
	if ds[1].Name != "BenchmarkSimMP" || ds[1].Pct < 24.9 || ds[1].Pct > 25.1 {
		t.Fatalf("second delta: %+v", ds[1])
	}
	if s := ds[1].String(); !strings.Contains(s, "+25.0%") {
		t.Fatalf("String: %q", s)
	}
}

func writeTemp(t *testing.T, data []byte) (string, error) {
	t.Helper()
	f := t.TempDir() + "/bench.json"
	return f, os.WriteFile(f, data, 0o644)
}

// TestCompareNormalized: the drift-robust gate compares ratios against
// the reference benchmark, so a uniformly slower machine passes while a
// benchmark that slowed relative to the reference fails.
func TestCompareNormalized(t *testing.T) {
	base := Report{Results: []Result{
		{Name: "BenchmarkSimBaseline", InstrsPerSec: 10_000_000},
		{Name: "BenchmarkSimCATCH", InstrsPerSec: 5_000_000},
		{Name: "BenchmarkSimBatch", InstrsPerSec: 20_000_000},
	}}

	// Everything uniformly 40% slower: absolute Compare fails all of
	// them, the normalized gate passes (ratios unchanged).
	slow := Report{Results: []Result{
		{Name: "BenchmarkSimBaseline", InstrsPerSec: 6_000_000},
		{Name: "BenchmarkSimCATCH", InstrsPerSec: 3_000_000},
		{Name: "BenchmarkSimBatch", InstrsPerSec: 12_000_000},
	}}
	if regs := Compare(base, slow, 0.10); len(regs) != 3 {
		t.Fatalf("absolute Compare on a uniformly slow machine: %d regressions, want 3", len(regs))
	}
	regs, err := CompareNormalized(base, slow, "BenchmarkSimBaseline", 0.10)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 0 {
		t.Fatalf("normalized compare flagged uniform slowdown: %v", regs)
	}

	// CATCH alone 30% slower: only it fails, and the ratio values are
	// reported (0.5 -> 0.35).
	mixed := Report{Results: []Result{
		{Name: "BenchmarkSimBaseline", InstrsPerSec: 10_000_000},
		{Name: "BenchmarkSimCATCH", InstrsPerSec: 3_500_000},
		{Name: "BenchmarkSimBatch", InstrsPerSec: 20_000_000},
	}}
	regs, err = CompareNormalized(base, mixed, "BenchmarkSimBaseline", 0.10)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 1 || regs[0].Name != "BenchmarkSimCATCH" {
		t.Fatalf("regressions = %v, want only BenchmarkSimCATCH", regs)
	}
	if regs[0].Old != 0.5 || regs[0].New != 0.35 {
		t.Fatalf("ratios = %v -> %v, want 0.5 -> 0.35", regs[0].Old, regs[0].New)
	}
	if s := regs[0].String(); !strings.Contains(s, "0.500 -> 0.350") || !strings.Contains(s, "-30.0%") {
		t.Fatalf("String: %q", s)
	}

	// The reference itself is never gated, and a missing reference is a
	// hard error rather than a silently absolute comparison.
	noRef := Report{Results: []Result{{Name: "BenchmarkSimCATCH", InstrsPerSec: 1}}}
	if _, err := CompareNormalized(base, noRef, "BenchmarkSimBaseline", 0.10); err == nil {
		t.Fatal("missing reference in current report: want error")
	}
	if _, err := CompareNormalized(noRef, base, "BenchmarkSimBaseline", 0.10); err == nil {
		t.Fatal("missing reference in baseline report: want error")
	}
}

// TestParseRejectsOutOfRangeNumbers: a result line whose run count or
// recorded metric is NaN, infinite or negative fails Parse with an
// error naming the line, instead of failing later in WriteJSON (NaN,
// ±Inf) or passing the gate unnoticed (+Inf instrs/s, negative ns/op).
// Lines that are not results stay ignored.
func TestParseRejectsOutOfRangeNumbers(t *testing.T) {
	for _, tc := range []struct {
		line    string
		wantErr bool
	}{
		{"BenchmarkSimCATCH 196 NaN ns/op", true},
		{"BenchmarkSimCATCH 196 12249358 ns/op +Inf instrs/s", true},
		{"BenchmarkSimCATCH 196 12249358 ns/op Inf instrs/s", true},
		{"BenchmarkSimCATCH 196 -Inf ns/op", true},
		{"BenchmarkSimCATCH 196 -12249358 ns/op 8163700 instrs/s", true},
		{"BenchmarkSimCATCH 196 12249358 ns/op -1 B/op", true},
		{"BenchmarkSimCATCH 196 12249358 ns/op nan allocs/op", true},
		{"BenchmarkSimCATCH -196 12249358 ns/op", true},
		// Not results: ignored as before.
		{"BenchmarkSimCATCH 196 12249358 ns/op NaN widgets/op", false},
		{"BenchmarkSimCATCH 196 1e400 ns/op", false},
		{"BenchmarkSimCATCH -196 NaN widgets/op x y", false},
	} {
		rep, err := Parse(strings.NewReader(sampleOutput + tc.line + "\n"))
		if tc.wantErr {
			if err == nil {
				t.Errorf("%q: accepted as %+v, want an error", tc.line, rep.Results[len(rep.Results)-1])
			} else if !strings.Contains(err.Error(), tc.line) {
				t.Errorf("%q: error %q does not name the line", tc.line, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("%q: %v, want the line ignored or its unknown metric skipped", tc.line, err)
		}
	}
}
