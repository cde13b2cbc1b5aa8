package metrics

import (
	"strings"
	"testing"
	"time"
)

func TestHistogramBasics(t *testing.T) {
	var h Histogram
	if h.Count() != 0 || h.Mean() != 0 || h.Percentile(50) != 0 {
		t.Fatal("zero histogram not empty")
	}
	for _, d := range []time.Duration{time.Millisecond, 3 * time.Millisecond, 2 * time.Millisecond} {
		h.Observe(d)
	}
	if h.Count() != 3 || h.Total() != 6*time.Millisecond {
		t.Fatalf("count/total = %d/%v", h.Count(), h.Total())
	}
	if h.Mean() != 2*time.Millisecond {
		t.Fatalf("mean = %v", h.Mean())
	}
	if h.Min() != time.Millisecond || h.Max() != 3*time.Millisecond {
		t.Fatalf("min/max = %v/%v", h.Min(), h.Max())
	}
	// Negative observations clamp to zero rather than corrupting buckets.
	h.Observe(-time.Second)
	if h.Min() != 0 {
		t.Fatalf("negative sample min = %v", h.Min())
	}
}

func TestHistogramBucketLayout(t *testing.T) {
	// Sub-floor samples land in bucket 0.
	if got := bucketOf(0); got != 0 {
		t.Fatalf("bucketOf(0) = %d", got)
	}
	if got := bucketOf(histFloor - 1); got != 0 {
		t.Fatalf("bucketOf(floor-1) = %d", got)
	}
	// Boundaries: each bucket's lo maps into that bucket, hi into the next.
	for i := 1; i < histBuckets-1; i++ {
		lo, hi := BucketBounds(i)
		if got := bucketOf(lo); got != i {
			t.Fatalf("bucketOf(lo of %d) = %d", i, got)
		}
		if got := bucketOf(hi - 1); got != i {
			t.Fatalf("bucketOf(hi-1 of %d) = %d", i, got)
		}
	}
	// Durations beyond the top bucket clamp instead of overflowing.
	if got := bucketOf(1 << 62); got != histBuckets-1 {
		t.Fatalf("huge duration bucket = %d", got)
	}
}

func TestHistogramPercentileWithinBucket(t *testing.T) {
	var h Histogram
	for i := 0; i < 100; i++ {
		h.Observe(time.Millisecond) // all in one bucket
	}
	for _, p := range []float64{50, 95, 99, 100} {
		got := h.Percentile(p)
		// Accuracy contract: within the sample's log-2 bucket, clamped to
		// observed min/max — here min == max, so exact.
		if got != time.Millisecond {
			t.Fatalf("p%v = %v", p, got)
		}
	}
}

func TestHistogramMerge(t *testing.T) {
	var a, b Histogram
	a.Observe(time.Millisecond)
	b.Observe(4 * time.Millisecond)
	b.Observe(8 * time.Millisecond)
	a.Merge(&b)
	if a.Count() != 3 || a.Total() != 13*time.Millisecond {
		t.Fatalf("merged count/total = %d/%v", a.Count(), a.Total())
	}
	if a.Min() != time.Millisecond || a.Max() != 8*time.Millisecond {
		t.Fatalf("merged min/max = %v/%v", a.Min(), a.Max())
	}
	// Merge equals observing the union directly (same fixed layout).
	var u Histogram
	for _, d := range []time.Duration{time.Millisecond, 4 * time.Millisecond, 8 * time.Millisecond} {
		u.Observe(d)
	}
	if a != u {
		t.Fatalf("merge diverged from direct observation:\n%+v\n%+v", a, u)
	}
	// Merging nil or empty is a no-op.
	before := a
	a.Merge(nil)
	a.Merge(&Histogram{})
	if a != before {
		t.Fatal("nil/empty merge mutated histogram")
	}
}

func TestHistogramSummary(t *testing.T) {
	var h Histogram
	h.Observe(time.Millisecond)
	s := h.Summary()
	for _, want := range []string{"n=1", "mean=1ms", "p50=", "max=1ms"} {
		if !strings.Contains(s, want) {
			t.Fatalf("summary missing %q: %q", want, s)
		}
	}
}

func TestCountersMerge(t *testing.T) {
	var a, b Counters
	a.Add("retries", 3)
	a.Add("faults", 1)
	b.Add("faults", 2)
	b.Add("timeouts", 5)
	a.Merge(&b)
	if got := a.Get("faults"); got != 3 {
		t.Fatalf("faults = %v", got)
	}
	if got := a.Get("timeouts"); got != 5 {
		t.Fatalf("timeouts = %v", got)
	}
	// Existing names keep their order; new names append in other's order.
	names := a.Names()
	want := []string{"retries", "faults", "timeouts"}
	if len(names) != len(want) {
		t.Fatalf("names = %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("names = %v, want %v", names, want)
		}
	}
	// Merging nil is a no-op.
	a.Merge(nil)
	if len(a.Names()) != 3 {
		t.Fatal("nil merge mutated counters")
	}
}
