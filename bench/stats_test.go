package main

import (
	"math"
	"testing"
)

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
		{nil, 0},
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	xs := []float64{3, 1, 2}
	median(xs)
	if xs[0] != 3 {
		t.Error("median sorted its argument in place")
	}
}

// The expected values are what Python's statistics.quantiles(xs, n=4)
// prints, since that is what the driver computes.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 1, 7, 3, 9}, 2, 7, 9.5},
		{[]float64{2.0, 2.1, 1.9, 2.05, 1.95, 2.2, 1.8, 2.0, 2.15, 1.85}, 1.8875, 2.0, 2.1125},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-9 || math.Abs(q2-c.q2) > 1e-9 || math.Abs(q3-c.q3) > 1e-9 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-9 {
		t.Errorf("spread = %v, want 1", got)
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	ramp := func(n int) []int64 {
		xs := make([]int64, n)
		for i := range xs {
			xs[i] = int64(i + 1)
		}
		return xs
	}
	if v, err := percentile(ramp(1000), 99); err != nil || v != 990 {
		t.Errorf("p99 of 1..1000 = %v, %v; want 990 (ten samples beyond)", v, err)
	}
	if _, err := percentile(ramp(999), 99); err == nil {
		t.Error("p99 of 999 samples accepted with nine samples beyond")
	}
	if v, err := percentile(ramp(10000), 99.9); err != nil || v != 9990 {
		t.Errorf("p99.9 of 1..10000 = %v, %v; want 9990", v, err)
	}
	if _, err := percentile(ramp(5000), 99.9); err == nil {
		t.Error("p99.9 of 5000 samples accepted")
	}
	if v, err := percentile(ramp(21), 50); err != nil || v != 11 {
		t.Errorf("p50 of 1..21 = %v, %v; want 11", v, err)
	}
	if _, err := percentile(nil, 50); err == nil {
		t.Error("percentile of no samples accepted")
	}
}
