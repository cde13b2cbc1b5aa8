package metrics

import (
	"testing"
	"time"
)

func TestHistogramBasics(t *testing.T) {
	var h Histogram
	if h.Count() != 0 || h.Total() != 0 {
		t.Fatal("zero histogram not empty")
	}
	for _, d := range []time.Duration{time.Millisecond, 3 * time.Millisecond, 2 * time.Millisecond} {
		h.Observe(d)
	}
	if h.Count() != 3 || h.Total() != 6*time.Millisecond {
		t.Fatalf("count/total = %d/%v", h.Count(), h.Total())
	}
	// Negative observations clamp to zero rather than corrupting buckets.
	h.Observe(-time.Second)
	if h.counts[0] != 1 || h.Total() != 6*time.Millisecond {
		t.Fatalf("negative sample: bucket 0 = %d, total %v", h.counts[0], h.Total())
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
