package metrics

import (
	"fmt"
	"math/bits"
	"time"
)

// Histogram bucket layout: bucket 0 holds durations below histFloor;
// bucket i (i >= 1) holds [histFloor<<(i-1), histFloor<<i). Every
// Histogram shares the layout, which is what makes Merge a plain
// element-wise sum.
const (
	histFloor   = time.Microsecond
	histBuckets = 48 // top bucket starts at ~1.6 days; beyond that clamps
)

// Histogram is a fixed log-bucket latency histogram: constant memory
// regardless of sample count, mergeable across shards, and exportable. It
// replaces the raw-sample Dist where counts grow unboundedly (live
// servers, long traces); Dist remains the right tool for bounded
// experiment samples where exact percentiles matter. The zero value is
// ready to use. Histogram is not safe for concurrent use; wrap it in a
// mutex for live mode.
type Histogram struct {
	counts [histBuckets]uint64
	n      uint64
	sum    time.Duration
	min    time.Duration
	max    time.Duration
}

// bucketOf maps a duration to its bucket index.
func bucketOf(d time.Duration) int {
	if d < histFloor {
		return 0
	}
	i := bits.Len64(uint64(d / histFloor))
	if i >= histBuckets {
		return histBuckets - 1
	}
	return i
}

// BucketBounds returns bucket i's half-open range [lo, hi); the top
// bucket's hi is the maximum duration.
func BucketBounds(i int) (lo, hi time.Duration) {
	switch {
	case i <= 0:
		return 0, histFloor
	case i >= histBuckets-1:
		return histFloor << (histBuckets - 2), time.Duration(1<<63 - 1)
	default:
		return histFloor << (i - 1), histFloor << i
	}
}

// Observe records one sample.
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.counts[bucketOf(d)]++
	if h.n == 0 || d < h.min {
		h.min = d
	}
	if d > h.max {
		h.max = d
	}
	h.n++
	h.sum += d
}

// Merge folds other into h.
func (h *Histogram) Merge(other *Histogram) {
	if other == nil || other.n == 0 {
		return
	}
	for i, c := range other.counts {
		h.counts[i] += c
	}
	if h.n == 0 || other.min < h.min {
		h.min = other.min
	}
	if other.max > h.max {
		h.max = other.max
	}
	h.n += other.n
	h.sum += other.sum
}

// Count returns the number of samples.
func (h *Histogram) Count() uint64 { return h.n }

// Total returns the sum of all samples.
func (h *Histogram) Total() time.Duration { return h.sum }

// Mean returns the average sample, or 0 with no samples.
func (h *Histogram) Mean() time.Duration {
	if h.n == 0 {
		return 0
	}
	return h.sum / time.Duration(h.n)
}

// Min returns the smallest sample.
func (h *Histogram) Min() time.Duration { return h.min }

// Max returns the largest sample.
func (h *Histogram) Max() time.Duration { return h.max }

// Percentile returns the p-th percentile (0 < p <= 100) by nearest rank
// over buckets, interpolated at the bucket midpoint and clamped to the
// observed min/max — accurate to within one log bucket (a factor of 2).
func (h *Histogram) Percentile(p float64) time.Duration {
	if h.n == 0 {
		return 0
	}
	rank := uint64(p / 100 * float64(h.n))
	if rank < 1 {
		rank = 1
	}
	if rank > h.n {
		rank = h.n
	}
	var cum uint64
	for i, c := range h.counts {
		cum += c
		if cum >= rank {
			lo, hi := BucketBounds(i)
			mid := lo + (hi-lo)/2
			if i == histBuckets-1 {
				mid = h.max
			}
			if mid < h.min {
				mid = h.min
			}
			if mid > h.max {
				mid = h.max
			}
			return mid
		}
	}
	return h.max
}

// CumBucket is one bucket of a cumulative (Prometheus-style) view: Count
// samples were at or below Hi. The top bucket's Hi is the maximum
// duration, which exporters render as +Inf.
type CumBucket struct {
	Hi    time.Duration
	Count uint64
}

// CumulativeBuckets translates the fixed log2 layout into cumulative
// le-buckets over the full layout (empty buckets included), ascending.
// The final bucket's Count always equals Count().
func (h *Histogram) CumulativeBuckets() []CumBucket {
	out := make([]CumBucket, histBuckets)
	var cum uint64
	for i, c := range h.counts {
		cum += c
		_, hi := BucketBounds(i)
		out[i] = CumBucket{Hi: hi, Count: cum}
	}
	return out
}

// Summary renders a one-line histogram summary.
func (h *Histogram) Summary() string {
	return fmt.Sprintf("n=%d mean=%v p50=%v p95=%v max=%v",
		h.n, h.Mean().Round(time.Microsecond),
		h.Percentile(50).Round(time.Microsecond),
		h.Percentile(95).Round(time.Microsecond),
		h.max.Round(time.Microsecond))
}
