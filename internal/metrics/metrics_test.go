package metrics

import (
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestDistBasics(t *testing.T) {
	var d Dist
	if d.Mean() != 0 || d.Percentile(0) != 0 || d.Max() != 0 {
		t.Fatal("zero Dist not empty")
	}
	for _, v := range []time.Duration{3, 1, 2} {
		d.Add(v * time.Second)
	}
	if d.Mean() != 2*time.Second {
		t.Fatalf("mean = %v", d.Mean())
	}
	if d.Percentile(0) != time.Second || d.Max() != 3*time.Second {
		t.Fatalf("min/max = %v/%v", d.Percentile(0), d.Max())
	}
}
func TestDistPercentiles(t *testing.T) {
	var d Dist
	for i := 1; i <= 100; i++ {
		d.Add(time.Duration(i))
	}
	if got := d.Percentile(50); got != 50 {
		t.Fatalf("p50 = %v", got)
	}
	if got := d.Percentile(95); got != 95 {
		t.Fatalf("p95 = %v", got)
	}
	if got := d.Percentile(100); got != 100 {
		t.Fatalf("p100 = %v", got)
	}
	if got := d.Percentile(0.5); got != 1 {
		t.Fatalf("p0.5 = %v", got)
	}
}

// TestPercentileNearestRank pins the one rank rule every percentile in
// the repository shares: the smallest sample with at least p % of the set
// at or below it, i.e. rank ceil(p·n/100). Flooring instead makes the p50
// of three samples the minimum and the p99 of ten the 9th (the tracegraph
// and scenario tests of the same name cover the two callers that did).
func TestPercentileNearestRank(t *testing.T) {
	for _, n := range []int{1, 3, 10, 100} {
		samples := make([]int, n) // samples[i] = i+1, so value == rank
		var d Dist
		for i := range samples {
			samples[i] = i + 1
			d.Add(time.Duration(i + 1))
		}
		for _, p := range []int{50, 95, 99, 100} {
			want := (p*n + 99) / 100
			if got := Percentile(samples, float64(p)); got != want {
				t.Errorf("Percentile(1..%d, %d) = %d, want %d", n, p, got, want)
			}
			if got := d.Percentile(float64(p)); got != time.Duration(want) {
				t.Errorf("Dist(1..%d).Percentile(%d) = %d, want %d", n, p, got, want)
			}
		}
	}
	if got := Percentile([]float64(nil), 50); got != 0 {
		t.Errorf("Percentile of no samples = %v, want 0", got)
	}
}

func TestDistAddAfterSortedQuery(t *testing.T) {
	var d Dist
	d.Add(5)
	_ = d.Max() // forces sort
	d.Add(1)
	if d.Percentile(0) != 1 {
		t.Fatal("Add after sorted query not reflected")
	}
}
func TestDistMerge(t *testing.T) {
	var a, b Dist
	a.Add(1)
	b.Add(3)
	a.Merge(&b)
	if a.Mean() != 2 || a.Max() != 3 {
		t.Fatalf("merged mean/max = %v/%v", a.Mean(), a.Max())
	}
}
func TestDistPercentileProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		var d Dist
		vals := make([]time.Duration, len(raw))
		for i, v := range raw {
			vals[i] = time.Duration(v)
			d.Add(time.Duration(v))
		}
		sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
		return d.Percentile(0) == vals[0] && d.Max() == vals[len(vals)-1] &&
			d.Percentile(50) >= vals[0] && d.Percentile(50) <= vals[len(vals)-1]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFigureRenderAndCSV(t *testing.T) {
	var f Figure
	f.Title = "Fig X"
	f.XLabel = "workers"
	f.YLabel = "seconds"
	f.AddPoint("put", 1, 10)
	f.AddPoint("put", 2, 5)
	f.AddPoint("get", 1, 20)
	out := f.Render()
	for _, want := range []string{"Fig X", "workers", "put", "get", "10.000", "5.000"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
	// get has no point at x=2: rendered as "-".
	if !strings.Contains(out, "-") {
		t.Fatalf("missing placeholder for absent point:\n%s", out)
	}
	csv := f.CSV()
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if lines[0] != "workers,put,get" {
		t.Fatalf("csv header = %q", lines[0])
	}
	if lines[1] != "1,10,20" || lines[2] != "2,5," {
		t.Fatalf("csv rows = %q", lines[1:])
	}
}

func TestFigureXsSortedUnion(t *testing.T) {
	var f Figure
	f.AddPoint("a", 4, 1)
	f.AddPoint("a", 1, 1)
	f.AddPoint("b", 2, 1)
	xs := f.xs()
	want := []float64{1, 2, 4}
	if len(xs) != 3 {
		t.Fatalf("xs = %v", xs)
	}
	for i := range want {
		if xs[i] != want[i] {
			t.Fatalf("xs = %v", xs)
		}
	}
}

func TestMBps(t *testing.T) {
	if got := MBps(100<<20, 2*time.Second); math.Abs(got-50) > 1e-9 {
		t.Fatalf("MBps = %v", got)
	}
	if MBps(1, 0) != 0 {
		t.Fatal("zero elapsed should yield 0")
	}
}

func TestCountersAccumulateAndOrder(t *testing.T) {
	var c Counters
	c.Add("retries", 3)
	c.Add("faults", 1)
	c.Add("retries", 2)
	// One row per name, in insertion order, values accumulated.
	if got, want := c.Render(), "retries  5\n faults  1\n"; got != want {
		t.Fatalf("render = %q, want %q", got, want)
	}
}
func TestCountersRender(t *testing.T) {
	var c Counters
	c.Add("faults injected", 12)
	c.Add("goodput", 41.5)
	out := c.Render()
	for _, want := range []string{"faults injected", "12", "41.500"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
	var empty Counters
	if empty.Render() != "" {
		t.Fatalf("empty render = %q", empty.Render())
	}
}
