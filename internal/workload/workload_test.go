package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
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

// TestZipfDrawsPinned pins the first 10 000 draws of Next(96) and
// Next(1000) at θ = 0.99 — the hotspot experiment's key stream and the
// closed-loop scenarios' — as hashes recorded before Next's constants moved
// into NewZipf: a rewrite of the arithmetic must leave every draw in place.
func TestZipfDrawsPinned(t *testing.T) {
	for _, c := range []struct {
		n    int
		want string
	}{
		{96, "e9d21079bd25a51c33e7c1b23c8f17a52aebc683036e3b352d95147f00f1c41d"},
		{1000, "829711b506d9b3b3a828371743d4f175940b6ab51ffa308d66ff1905679efa96"},
	} {
		z := NewZipf(sim.NewRand(7), 0.99)
		h := sha256.New()
		for range 10_000 {
			h.Write(binary.LittleEndian.AppendUint32(nil, uint32(z.Next(c.n))))
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != c.want {
			t.Errorf("Next(%d): the draws hash to %s, want %s", c.n, got, c.want)
		}
	}
}
