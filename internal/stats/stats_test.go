package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestCounter(t *testing.T) {
	var c AtomicCounter
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d", c.Value())
	}
}

func TestRatio(t *testing.T) {
	if Ratio(1, 4) != 0.25 {
		t.Fatal("Ratio(1,4)")
	}
	if Ratio(1, 0) != 0 {
		t.Fatal("Ratio by zero")
	}
}

func TestGeomean(t *testing.T) {
	g := Geomean([]float64{1, 4})
	if math.Abs(g-2) > 1e-12 {
		t.Fatalf("geomean(1,4) = %v", g)
	}
	if Geomean(nil) != 0 {
		t.Fatal("geomean of empty input")
	}
	if Geomean([]float64{-1, 0}) != 0 {
		t.Fatal("geomean ignores non-positive")
	}
}

func TestGeomeanBetweenMinMax(t *testing.T) {
	f := func(xs []float64) bool {
		var pos []float64
		for _, x := range xs {
			if x > 0 && x < 1e150 {
				pos = append(pos, x)
			}
		}
		if len(pos) == 0 {
			return true
		}
		g := Geomean(pos)
		min, max := pos[0], pos[0]
		for _, x := range pos {
			if x < min {
				min = x
			}
			if x > max {
				max = x
			}
		}
		return g >= min*(1-1e-9) && g <= max*(1+1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMean(t *testing.T) {
	if Mean([]float64{1, 2, 3}) != 2 {
		t.Fatal("mean")
	}
	if Mean(nil) != 0 {
		t.Fatal("mean of empty")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 3, 2, 4}
	if Percentile(xs, 0) != 1 {
		t.Fatal("p0")
	}
	if Percentile(xs, 100) != 5 {
		t.Fatal("p100")
	}
	if Percentile(xs, 50) != 3 {
		t.Fatal("p50")
	}
	if Percentile(nil, 50) != 0 {
		t.Fatal("empty percentile")
	}
}

func TestSpeedupPercent(t *testing.T) {
	if SpeedupPercent(1.1, 1.0) < 9.99 || SpeedupPercent(1.1, 1.0) > 10.01 {
		t.Fatal("speedup")
	}
	if SpeedupPercent(1, 0) != 0 {
		t.Fatal("zero base")
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(0.1, 0.8)
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(0.9)
	h.Observe(1.0)
	if h.Counts[0] != 1 || h.Counts[1] != 1 || h.Counts[2] != 2 {
		t.Fatalf("histogram counts %v", h.Counts)
	}
	if h.Fraction(2) != 0.5 {
		t.Fatalf("fraction %v", h.Fraction(2))
	}
}

func TestHistogramMerge(t *testing.T) {
	a := NewHistogram(0.5)
	b := NewHistogram(0.5)
	a.Observe(0.2)
	b.Observe(0.9)
	a.Merge(b)
	a.Merge(nil)
	if a.Total != 2 || a.Counts[0] != 1 || a.Counts[1] != 1 {
		t.Fatalf("merge wrong: %+v", a)
	}
}

func TestHistogramEmptyFraction(t *testing.T) {
	h := NewHistogram(0.5)
	if h.Fraction(0) != 0 {
		t.Fatal("empty histogram fraction")
	}
}

func TestFormatPercent(t *testing.T) {
	if FormatPercent(1.234) != "+1.23%" {
		t.Fatalf("format: %q", FormatPercent(1.234))
	}
	if FormatPercent(-1.234) != "-1.23%" {
		t.Fatalf("format: %q", FormatPercent(-1.234))
	}
}
