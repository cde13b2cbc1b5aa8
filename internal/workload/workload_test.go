package workload

import (
	"fmt"
	"math"
	"testing"

	"azurebench/internal/sim"
)

func TestZipfBoundsAndSkew(t *testing.T) {
	z := NewZipf(sim.NewRand(3), 0.99)
	const n, draws = 1000, 200000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		v := z.Next(n)
		if v < 0 || v >= n {
			t.Fatalf("zipf out of range: %d", v)
		}
		counts[v]++
	}
	// Key 0 must be the hottest, and dramatically hotter than the median.
	for i := 1; i < n; i++ {
		if counts[i] > counts[0] {
			t.Fatalf("key %d (%d draws) hotter than key 0 (%d)", i, counts[i], counts[0])
		}
	}
	if counts[0] < draws/100 {
		t.Fatalf("key 0 drew only %d of %d (not skewed)", counts[0], draws)
	}
	// Top-10 keys should hold a large share of all traffic under θ=0.99.
	top := 0
	for i := 0; i < 10; i++ {
		top += counts[i]
	}
	if float64(top)/draws < 0.15 {
		t.Fatalf("top-10 share = %v, want >= 0.15", float64(top)/draws)
	}
}

func TestZipfGrowingRange(t *testing.T) {
	z := NewZipf(sim.NewRand(4), 0.99)
	for n := 1; n < 100; n++ {
		v := z.Next(n)
		if v < 0 || v >= n {
			t.Fatalf("zipf out of growing range: %d of %d", v, n)
		}
	}
}

func TestKeyFormat(t *testing.T) {
	if Key(42) != "user0000000042" {
		t.Fatalf("Key(42) = %q", Key(42))
	}
	// The format is fmt's, at every width and sign.
	for _, i := range []int{0, 1, 9, 10, 999, 1<<31 - 1, 9999999999, 10000000000, 123456789012345,
		math.MaxInt64, -1, -42, -999999999, -1000000000, -12345678901, math.MinInt64} {
		if got, want := Key(i), fmt.Sprintf("user%010d", i); got != want {
			t.Errorf("Key(%d) = %q, want %q", i, got, want)
		}
	}
}
