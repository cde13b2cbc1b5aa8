// Package metrics collects operation timings during experiments and
// renders the paper's figures as aligned text tables and CSV. It is
// deliberately simple: distributions keep raw samples (experiments produce
// at most a few hundred thousand), and figures are series of (x, y)
// points keyed by worker count.
package metrics

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"time"
)

// Dist is an online distribution of durations. The zero value is ready to
// use. Dist is not safe for concurrent use (the simulation is cooperative;
// live-mode benchmarks keep one Dist per goroutine and merge).
type Dist struct {
	samples []time.Duration
	sum     time.Duration
	sorted  bool
}

// Add records one sample.
func (d *Dist) Add(v time.Duration) {
	d.samples = append(d.samples, v)
	d.sum += v
	d.sorted = false
}

// Merge folds other into d.
func (d *Dist) Merge(other *Dist) {
	d.samples = append(d.samples, other.samples...)
	d.sum += other.sum
	d.sorted = false
}

// Mean returns the average sample, or 0 with no samples.
func (d *Dist) Mean() time.Duration {
	if len(d.samples) == 0 {
		return 0
	}
	return d.sum / time.Duration(len(d.samples))
}

// Max returns the largest sample.
func (d *Dist) Max() time.Duration {
	d.ensureSorted()
	if len(d.samples) == 0 {
		return 0
	}
	return d.samples[len(d.samples)-1]
}

// Percentile returns the p-th percentile (0 <= p <= 100) by
// nearest-rank; Percentile(0) is the smallest sample.
func (d *Dist) Percentile(p float64) time.Duration {
	d.ensureSorted()
	return Percentile(d.samples, p)
}

// Percentile returns the p-th percentile (0 <= p <= 100) of an ascending
// sample set by nearest rank — the smallest sample with at least p % of
// the set at or below it, so the p50 of three samples is the middle one
// and p0 the first — and the zero value with no samples.
func Percentile[T any](sorted []T, p float64) T {
	n := len(sorted)
	if n == 0 {
		var zero T
		return zero
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	return sorted[min(max(rank, 1), n)-1]
}

func (d *Dist) ensureSorted() {
	if d.sorted {
		return
	}
	slices.Sort(d.samples)
	d.sorted = true
}

// Point is one figure data point.
type Point struct {
	X float64
	Y float64
}

// Series is one labelled curve of a figure.
type Series struct {
	Name   string
	Points []Point
}

// Add appends a point.
func (s *Series) Add(x, y float64) {
	s.Points = append(s.Points, Point{X: x, Y: y})
}

// Figure is the data behind one paper figure: multiple series over a
// shared x axis.
type Figure struct {
	Title  string
	XLabel string
	YLabel string
	Series []Series
}

// AddPoint appends (x, y) to the named series, creating it on first use.
func (f *Figure) AddPoint(series string, x, y float64) {
	for i := range f.Series {
		if f.Series[i].Name == series {
			f.Series[i].Add(x, y)
			return
		}
	}
	f.Series = append(f.Series, Series{Name: series, Points: []Point{{X: x, Y: y}}})
}

// xs returns the sorted union of x values across series.
func (f *Figure) xs() []float64 {
	seen := map[float64]bool{}
	var out []float64
	for _, s := range f.Series {
		for _, pt := range s.Points {
			if !seen[pt.X] {
				seen[pt.X] = true
				out = append(out, pt.X)
			}
		}
	}
	sort.Float64s(out)
	return out
}

func (f *Figure) lookup(s Series, x float64) (float64, bool) {
	for _, pt := range s.Points {
		if pt.X == x {
			return pt.Y, true
		}
	}
	return 0, false
}

// Render draws the figure as an aligned text table, one row per x value
// and one column per series.
func (f *Figure) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", f.Title)
	fmt.Fprintf(&b, "(y: %s)\n", f.YLabel)
	header := []string{f.XLabel}
	for _, s := range f.Series {
		header = append(header, s.Name)
	}
	rows := [][]string{header}
	for _, x := range f.xs() {
		row := []string{trimFloat(x)}
		for _, s := range f.Series {
			if y, ok := f.lookup(s, x); ok {
				row = append(row, fmt.Sprintf("%.3f", y))
			} else {
				row = append(row, "-")
			}
		}
		rows = append(rows, row)
	}
	WriteAligned(&b, rows)
	return b.String()
}

// CSV renders the figure as comma-separated values with a header row.
func (f *Figure) CSV() string {
	var b strings.Builder
	cols := []string{f.XLabel}
	for _, s := range f.Series {
		cols = append(cols, s.Name)
	}
	b.WriteString(strings.Join(cols, ","))
	b.WriteByte('\n')
	for _, x := range f.xs() {
		fields := []string{trimFloat(x)}
		for _, s := range f.Series {
			if y, ok := f.lookup(s, x); ok {
				fields = append(fields, fmt.Sprintf("%g", y))
			} else {
				fields = append(fields, "")
			}
		}
		b.WriteString(strings.Join(fields, ","))
		b.WriteByte('\n')
	}
	return b.String()
}

func trimFloat(x float64) string {
	if x == math.Trunc(x) {
		return fmt.Sprintf("%d", int64(x))
	}
	return fmt.Sprintf("%g", x)
}

// WriteAligned renders rows as a table of right-aligned columns two
// spaces apart, each as wide as its widest cell. No row may have more
// cells than the first.
func WriteAligned(b *strings.Builder, rows [][]string) {
	if len(rows) == 0 {
		return
	}
	widths := make([]int, len(rows[0]))
	for _, row := range rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	for _, row := range rows {
		for i, cell := range row {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(b, "%*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
}

// Counters is an ordered set of named counters — the reporting vehicle
// for fault-injection and retry accounting, where a figure's (x, y) shape
// fits badly. Insertion order is preserved so reports render stably.
type Counters struct {
	names []string
	vals  map[string]float64
}

// Add accumulates v into the named counter, creating it on first use.
func (c *Counters) Add(name string, v float64) {
	if c.vals == nil {
		c.vals = map[string]float64{}
	}
	if _, ok := c.vals[name]; !ok {
		c.names = append(c.names, name)
	}
	c.vals[name] += v
}

// Render formats the counters as an aligned name/value table.
func (c *Counters) Render() string {
	var b strings.Builder
	rows := make([][]string, 0, len(c.names))
	for _, n := range c.names {
		rows = append(rows, []string{n, trimFloat2(c.vals[n])})
	}
	WriteAligned(&b, rows)
	return b.String()
}

// trimFloat2 renders a counter value: integers bare, fractions with
// three decimals.
func trimFloat2(x float64) string {
	if x == math.Trunc(x) {
		return fmt.Sprintf("%d", int64(x))
	}
	return fmt.Sprintf("%.3f", x)
}

// MBps converts (bytes, elapsed) into MB/s.
func MBps(bytes int64, elapsed time.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(bytes) / elapsed.Seconds() / (1 << 20)
}

// Seconds converts a duration to float seconds (figure-friendly).
func Seconds(d time.Duration) float64 { return d.Seconds() }
