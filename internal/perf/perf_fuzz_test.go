package perf

import (
	"bytes"
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// FuzzParse feeds arbitrary text to the benchmark-output parser. It
// must never panic, every report it accepts must hold only finite,
// non-negative numbers, and an accepted report must survive WriteJSON
// then Load unchanged: that round trip is how `make bench` records
// BENCH_sim.json and how `make benchcmp` reads it back. Seeds are the
// unit tests' sample output and out-of-range lines.
func FuzzParse(f *testing.F) {
	for _, s := range []string{
		"",
		sampleOutput,
		"BenchmarkSimCATCH 196 NaN ns/op\n",
		"BenchmarkSimCATCH 196 12249358 ns/op +Inf instrs/s\n",
		"BenchmarkSimCATCH -196 12249358 ns/op\n",
		"BenchmarkSimCATCH 196 -0 ns/op 1e-320 B/op\n",
		"BenchmarkA-8 1 2 ns/op\nBenchmarkA-8 3 4 ns/op\ncpu: \xff<&>\n",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, in string) {
		rep, err := Parse(strings.NewReader(in))
		if err != nil {
			return
		}
		for _, r := range rep.Results {
			if r.Runs < 0 {
				t.Fatalf("accepted negative run count: %+v", r)
			}
			for _, v := range []float64{r.NsPerOp, r.InstrsPerSec, r.BytesPerOp, r.AllocsPerOp} {
				if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
					t.Fatalf("accepted out-of-range value %v: %+v", v, r)
				}
			}
		}
		var buf bytes.Buffer
		if err := rep.WriteJSON(&buf); err != nil {
			t.Fatalf("WriteJSON of an accepted report: %v", err)
		}
		path, err := writeTemp(t, buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		got, err := Load(path)
		if err != nil {
			t.Fatalf("Load of WriteJSON's output: %v", err)
		}
		// WriteJSON orders results by name, and repeated names in no
		// particular order, so compare both in one total order.
		sortResults(rep.Results)
		sortResults(got.Results)
		if !reflect.DeepEqual(got, rep) {
			t.Fatalf("round trip changed the report:\nparsed %+v\nloaded %+v", rep, got)
		}
	})
}

func sortResults(rs []Result) {
	sort.Slice(rs, func(i, j int) bool {
		a, b := rs[i], rs[j]
		switch {
		case a.Name != b.Name:
			return a.Name < b.Name
		case a.Runs != b.Runs:
			return a.Runs < b.Runs
		case a.NsPerOp != b.NsPerOp:
			return a.NsPerOp < b.NsPerOp
		case a.InstrsPerSec != b.InstrsPerSec:
			return a.InstrsPerSec < b.InstrsPerSec
		case a.BytesPerOp != b.BytesPerOp:
			return a.BytesPerOp < b.BytesPerOp
		}
		return a.AllocsPerOp < b.AllocsPerOp
	})
}
