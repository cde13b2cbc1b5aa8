package storecommon

import (
	"errors"
	"math"
	"testing"
	"time"

	"azurebench/internal/snapshot"
)

// limiterSection is a RateLimiter section of shape (10/s, burst 5)
// holding the given balance.
func limiterSection(tokens float64) []byte {
	var w snapshot.Writer
	w.F64(10)
	w.F64(5)
	w.F64(tokens)
	w.Duration(time.Second)
	w.U64(0)
	return w.Bytes()
}

func TestRateLimiterLoadKeepsFiniteBalance(t *testing.T) {
	for _, tokens := range []float64{5, 0, -3} {
		if err := NewRateLimiter(10, 5).Load(snapshot.NewReader(limiterSection(tokens))); err != nil {
			t.Errorf("tokens %g: Load = %v", tokens, err)
		}
	}
}

func TestRateLimiterLoadRefusesNonFiniteTokens(t *testing.T) {
	for _, tokens := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		err := NewRateLimiter(10, 5).Load(snapshot.NewReader(limiterSection(tokens)))
		if !errors.Is(err, snapshot.ErrCorrupt) {
			t.Errorf("tokens %g: Load = %v, want ErrCorrupt", tokens, err)
		}
	}
}

func TestRateLimiterLoadRefusesTokensAboveBurst(t *testing.T) {
	err := NewRateLimiter(10, 5).Load(snapshot.NewReader(limiterSection(5.5)))
	if !errors.Is(err, snapshot.ErrCorrupt) {
		t.Errorf("Load = %v, want ErrCorrupt", err)
	}
}

// TestLimiterPoolLoadRefusesCorruptEntry checks that the pool goes
// through the same limiter loader.
func TestLimiterPoolLoadRefusesCorruptEntry(t *testing.T) {
	p := NewLimiterPool(10, 5) // horizon max(burst/rate, 1s) = 1s
	var w snapshot.Writer
	w.F64(10)
	w.F64(5)
	w.Duration(time.Second)
	w.Duration(0)
	w.Int(1)
	w.String("q")
	w.Duration(0)
	section := append(w.Bytes(), limiterSection(math.NaN())...)
	if err := p.Load(snapshot.NewReader(section)); !errors.Is(err, snapshot.ErrCorrupt) {
		t.Errorf("Load = %v, want ErrCorrupt", err)
	}
}
