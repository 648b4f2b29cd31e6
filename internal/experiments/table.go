package experiments

import (
	"fmt"
	"strings"

	"catch/internal/core"
	"catch/internal/stats"
	"catch/internal/trace"
	"catch/internal/workloads"
)

// Table is a printable experiment result in the paper's row/series
// shape.
type Table struct {
	ID      string // "fig1", "table1", ...
	Title   string
	Headers []string
	Rows    [][]string
	Notes   []string
}

// Print renders the table to a string.
func (t *Table) Print() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Headers)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Budget controls how much work each experiment does.
type Budget struct {
	Insts     int64 // measured instructions per workload
	Warmup    int64 // warmup instructions per workload
	Workloads int   // number of ST workloads (0 = all 70)
	Mixes     int   // number of MP mixes (0 = all 60)
}

// QuickBudget is a reduced budget for tests.
func QuickBudget() Budget {
	return Budget{Insts: 60_000, Warmup: 30_000, Workloads: 10, Mixes: 4}
}

func (b Budget) workloads() []trace.Workload {
	return workloads.StudyList(b.Workloads)
}

// geomeanIPC returns the geometric-mean IPC of results, overall or per
// category.
func geomeanIPC(rs []core.Result, category string) float64 {
	var xs []float64
	for _, r := range rs {
		if category != "" && r.Category != category {
			continue
		}
		xs = append(xs, r.IPC)
	}
	return stats.Geomean(xs)
}

// speedupRow formats the per-category and geomean speedups of rs over
// base.
func speedupRow(label string, rs, base []core.Result) []string {
	row := []string{label}
	for _, cat := range workloads.Categories {
		row = append(row, pct(geomeanIPC(rs, cat), geomeanIPC(base, cat)))
	}
	row = append(row, pct(geomeanIPC(rs, ""), geomeanIPC(base, "")))
	return row
}

func pct(a, b float64) string {
	return stats.FormatPercent(stats.SpeedupPercent(a, b))
}

func pctf(x float64) string { return fmt.Sprintf("%.2f%%", 100*x) }

// categoryHeaders is the standard header row of category columns.
func categoryHeaders(first string) []string {
	h := []string{first}
	h = append(h, workloads.Categories...)
	return append(h, "GeoMean")
}

// avgOver averages f(r) over results (optionally one category).
func avgOver(rs []core.Result, category string, f func(*core.Result) float64) float64 {
	var xs []float64
	for i := range rs {
		if category != "" && rs[i].Category != category {
			continue
		}
		xs = append(xs, f(&rs[i]))
	}
	return stats.Mean(xs)
}
