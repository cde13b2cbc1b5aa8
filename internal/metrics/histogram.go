package metrics

import (
	"math/bits"
	"time"
)

// Histogram bucket layout: bucket 0 holds durations below histFloor;
// bucket i (i >= 1) holds [histFloor<<(i-1), histFloor<<i). Every
// Histogram shares the layout, so exports line up bucket for bucket.
const (
	histFloor   = time.Microsecond
	histBuckets = 48 // top bucket starts at ~1.6 days; beyond that clamps
)

// Histogram is a fixed log-bucket latency histogram: constant memory
// regardless of sample count, and exportable. It
// replaces the raw-sample Dist where counts grow unboundedly (live
// servers, long traces); Dist remains the right tool for bounded
// experiment samples where exact percentiles matter. The zero value is
// ready to use. Histogram is not safe for concurrent use; wrap it in a
// mutex for live mode.
type Histogram struct {
	counts [histBuckets]uint64
	n      uint64
	sum    time.Duration
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
	h.n++
	h.sum += d
}

// Count returns the number of samples.
func (h *Histogram) Count() uint64 { return h.n }

// Total returns the sum of all samples.
func (h *Histogram) Total() time.Duration { return h.sum }

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
