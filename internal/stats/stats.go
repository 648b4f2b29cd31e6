// Package stats provides counters, derived metrics and small numeric
// helpers shared by the simulator and the experiment harness.
package stats

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"
)

// AtomicCounter is a monotonically increasing event counter safe for
// concurrent use (the runner's cache and engine count from many
// goroutines at once).
type AtomicCounter struct {
	v atomic.Uint64
}

// Inc increments the counter by one.
func (c *AtomicCounter) Inc() { c.v.Add(1) }

// Add increments the counter by n.
func (c *AtomicCounter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *AtomicCounter) Value() uint64 { return c.v.Load() }

// Ratio returns c divided by total, or 0 when total is zero.
func Ratio(c, total uint64) float64 {
	if total == 0 {
		return 0
	}
	return float64(c) / float64(total)
}

// Geomean returns the geometric mean of xs. Non-positive entries are
// ignored; an empty input yields 0.
func Geomean(xs []float64) float64 {
	sum := 0.0
	n := 0
	for _, x := range xs {
		if x <= 0 {
			continue
		}
		sum += math.Log(x)
		n++
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Percentile returns the p-th percentile (0..100) of xs using nearest-rank.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	if p <= 0 {
		return cp[0]
	}
	if p >= 100 {
		return cp[len(cp)-1]
	}
	rank := int(math.Ceil(p/100*float64(len(cp)))) - 1
	if rank < 0 {
		rank = 0
	}
	return cp[rank]
}

// SpeedupPercent expresses new versus old as a percentage gain
// (positive means new is faster).
func SpeedupPercent(newIPC, oldIPC float64) float64 {
	if oldIPC == 0 {
		return 0
	}
	return (newIPC/oldIPC - 1) * 100
}

// Histogram is a fixed-bucket histogram over float64 samples in [0,1].
// It accumulates measurement state, so reset-coverage holds it to the
// warmup-boundary discipline despite the name.
//
//catch:stats
type Histogram struct {
	Bounds []float64 //catch:noreset bucket geometry, not a counter
	Counts []uint64
	Total  uint64
}

// NewHistogram creates a histogram with the given ascending upper bounds.
func NewHistogram(bounds ...float64) *Histogram {
	return &Histogram{Bounds: bounds, Counts: make([]uint64, len(bounds)+1)}
}

// Observe adds one sample.
func (h *Histogram) Observe(x float64) {
	h.Total++
	for i, b := range h.Bounds {
		if x <= b {
			h.Counts[i]++
			return
		}
	}
	h.Counts[len(h.Bounds)]++
}

// Reset zeroes all counts, keeping the bucket shape. An empty
// histogram behaves exactly like a nil one (Merge of either is a
// no-op), so callers may reuse an existing histogram across
// measurement windows instead of re-allocating it.
func (h *Histogram) Reset() {
	h.Total = 0
	for i := range h.Counts {
		h.Counts[i] = 0
	}
}

// Clone returns an independent copy of the histogram (nil clones to
// nil). Results that outlive the simulator they came from clone the
// shared live histogram so later resets cannot mutate them.
func (h *Histogram) Clone() *Histogram {
	if h == nil {
		return nil
	}
	return &Histogram{
		Bounds: append([]float64(nil), h.Bounds...),
		Counts: append([]uint64(nil), h.Counts...),
		Total:  h.Total,
	}
}

// Fraction returns the fraction of samples in bucket i.
func (h *Histogram) Fraction(i int) float64 {
	if h.Total == 0 {
		return 0
	}
	return float64(h.Counts[i]) / float64(h.Total)
}

// Merge adds the contents of other into h. Bucket shapes must match.
func (h *Histogram) Merge(other *Histogram) {
	if other == nil {
		return
	}
	for i := range h.Counts {
		if i < len(other.Counts) {
			h.Counts[i] += other.Counts[i]
		}
	}
	h.Total += other.Total
}

// FormatPercent renders a fraction as a fixed-width percentage string.
func FormatPercent(x float64) string {
	return fmt.Sprintf("%+.2f%%", x)
}
