// Package stats provides the small set of descriptive statistics the
// evaluation harness needs: per-series mean, standard deviation, and
// extrema over run timings, plus tabular and CSV rendering of figure
// series in the shape the paper reports (seconds per path length, one
// series per configuration).
package stats

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Sample accumulates observations and reports summary statistics.
// The zero value is an empty sample.
type Sample struct {
	xs []float64
}

// Add appends an observation.
func (s *Sample) Add(x float64) { s.xs = append(s.xs, x) }

// AddDuration appends a duration observation in seconds.
func (s *Sample) AddDuration(d time.Duration) { s.Add(d.Seconds()) }

// N returns the number of observations.
func (s *Sample) N() int { return len(s.xs) }

// Mean returns the arithmetic mean, or 0 for an empty sample.
func (s *Sample) Mean() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range s.xs {
		sum += x
	}
	return sum / float64(len(s.xs))
}

// Min returns the smallest observation, or 0 for an empty sample.
func (s *Sample) Min() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	m := s.xs[0]
	for _, x := range s.xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the largest observation, or 0 for an empty sample.
func (s *Sample) Max() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	m := s.xs[0]
	for _, x := range s.xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Percentile returns the p-th percentile (0 ≤ p ≤ 100) using linear
// interpolation between closest ranks, or 0 for an empty sample.
func (s *Sample) Percentile(p float64) float64 {
	if len(s.xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), s.xs...)
	sort.Float64s(sorted)
	return percentileSorted(sorted, p)
}

// Percentiles returns the requested percentiles in argument order,
// sorting the sample once — the tail-latency scrape path (p50/p99/p999
// from one histogram) pays one sort instead of one per quantile.
func (s *Sample) Percentiles(ps ...float64) []float64 {
	out := make([]float64, len(ps))
	if len(s.xs) == 0 {
		return out
	}
	sorted := append([]float64(nil), s.xs...)
	sort.Float64s(sorted)
	for i, p := range ps {
		out[i] = percentileSorted(sorted, p)
	}
	return out
}

// percentileSorted interpolates the p-th percentile of an ascending
// slice (closest-ranks linear interpolation; callers guarantee
// len(sorted) > 0).
func percentileSorted(sorted []float64, p float64) float64 {
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Series is one curve of a figure: a value per integer x (path length).
type Series struct {
	// Name identifies the curve, e.g. "15 host" or "500 task".
	Name string
	// Points maps x (path length) to the aggregated sample.
	Points map[int]*Sample
}

// NewSeries returns an empty named series.
func NewSeries(name string) *Series {
	return &Series{Name: name, Points: make(map[int]*Sample)}
}

// At returns the sample for x, creating it on first use.
func (s *Series) At(x int) *Sample {
	sm, ok := s.Points[x]
	if !ok {
		sm = &Sample{}
		s.Points[x] = sm
	}
	return sm
}

// Figure is a set of series sharing an x axis, like one of the paper's
// result figures.
type Figure struct {
	// Title names the figure, e.g. "Figure 4".
	Title string
	// XLabel and YLabel name the axes.
	XLabel, YLabel string
	// Series are the curves in display order.
	Series []*Series
}

// NewFigure returns an empty figure with the paper's axis labels.
func NewFigure(title string) *Figure {
	return &Figure{Title: title, XLabel: "Path length", YLabel: "Seconds"}
}

// allXs returns the union of x values over all series, sorted.
func (f *Figure) allXs() []int {
	set := make(map[int]struct{})
	for _, s := range f.Series {
		for x := range s.Points {
			set[x] = struct{}{}
		}
	}
	xs := make([]int, 0, len(set))
	for x := range set {
		xs = append(xs, x)
	}
	sort.Ints(xs)
	return xs
}

// WriteTable renders the figure as an aligned text table: one row per x,
// one column per series, mean seconds with 6 decimal places ("-" where a
// series has no point, matching the paper's max-path-length cutoffs).
func (f *Figure) WriteTable(w io.Writer) error {
	xs := f.allXs()
	headers := make([]string, 0, len(f.Series)+1)
	headers = append(headers, f.XLabel)
	for _, s := range f.Series {
		headers = append(headers, s.Name)
	}
	rows := make([][]string, 0, len(xs))
	for _, x := range xs {
		row := make([]string, 0, len(f.Series)+1)
		row = append(row, strconv.Itoa(x))
		for _, s := range f.Series {
			if sm, ok := s.Points[x]; ok && sm.N() > 0 {
				row = append(row, fmt.Sprintf("%.6f", sm.Mean()))
			} else {
				row = append(row, "-")
			}
		}
		rows = append(rows, row)
	}
	widths := make([]int, len(headers))
	for i, h := range headers {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s (%s vs %s)\n", f.Title, f.YLabel, f.XLabel)
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(headers)
	for _, row := range rows {
		writeRow(row)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// WriteCSV renders the figure as CSV with a header row: x followed by the
// mean of each series (empty cell where a series has no point).
func (f *Figure) WriteCSV(w io.Writer) error {
	var b strings.Builder
	b.WriteString(csvEscape(f.XLabel))
	for _, s := range f.Series {
		b.WriteByte(',')
		b.WriteString(csvEscape(s.Name))
	}
	b.WriteByte('\n')
	for _, x := range f.allXs() {
		b.WriteString(strconv.Itoa(x))
		for _, s := range f.Series {
			b.WriteByte(',')
			if sm, ok := s.Points[x]; ok && sm.N() > 0 {
				b.WriteString(strconv.FormatFloat(sm.Mean(), 'f', 6, 64))
			}
		}
		b.WriteByte('\n')
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func csvEscape(s string) string {
	if strings.ContainsAny(s, ",\"\n") {
		return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
	}
	return s
}
