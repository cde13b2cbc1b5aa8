package storecommon

import (
	"fmt"
	"testing"
	"time"
)

func TestLimiterPoolIdentityWithinHorizon(t *testing.T) {
	p := NewLimiterPool(100, 50)
	a := p.Get(0, "k")
	if b := p.Get(p.Horizon()/2, "k"); b != a {
		t.Fatal("limiter recreated before the horizon elapsed")
	}
	if p.Peek("k") != a || p.Peek("other") != nil {
		t.Fatal("Peek wrong")
	}
}

func TestLimiterPoolEvictsIdleAfterHorizon(t *testing.T) {
	p := NewLimiterPool(100, 50)
	a := p.Get(0, "k")
	a.Allow(0, 50) // drain the bucket
	// Two horizons later the idle limiter must have been swept, and its
	// replacement is a full bucket — exactly what the drained one would
	// have refilled to.
	now := 2 * p.Horizon()
	b := p.Get(now, "k")
	if b == a {
		t.Fatal("idle limiter not evicted after the horizon")
	}
	if b.refill(now); b.tokens != 50 {
		t.Fatalf("fresh limiter has %v tokens, want full burst 50", b.tokens)
	}
}

// A miss creates one bucket, and a bucket is one allocation: the limiter
// lives inside its pool entry.
func TestLimiterPoolMissAllocatesOnce(t *testing.T) {
	p := NewLimiterPool(100, 50)
	now := time.Duration(0)
	// Every call comes a horizon after the last, so it sweeps the previous
	// bucket out and misses; the map keeps its storage for the key.
	miss := func() {
		now += p.Horizon()
		p.Get(now, "k")
	}
	miss()
	if allocs := testing.AllocsPerRun(100, miss); allocs > 1 {
		t.Fatalf("miss: %v allocations, want 1", allocs)
	}
}

func TestLimiterPoolStaysBounded(t *testing.T) {
	p := NewLimiterPool(500, 50)
	// A million distinct keys, one touch each, spread over virtual time:
	// the map must stay bounded by the keys touched within one horizon,
	// not grow with the total key population.
	step := p.Horizon() / 1000
	maxLen := 0
	for i := 0; i < 100000; i++ {
		p.Get(time.Duration(i)*step, fmt.Sprintf("key-%d", i))
		if p.Len() > maxLen {
			maxLen = p.Len()
		}
	}
	if maxLen > 2100 {
		t.Fatalf("pool grew to %d entries; eviction is not bounding it", maxLen)
	}
	if p.Len() == 0 {
		t.Fatal("pool empty — eviction is deleting live entries")
	}
}

func TestLimiterPoolHorizonCoversRefill(t *testing.T) {
	// burst/rate = 10s refill: the horizon must be at least that, so an
	// evicted bucket can never come back fuller than it would have been.
	p := NewLimiterPool(5, 50)
	if p.Horizon() < 10*time.Second {
		t.Fatalf("horizon %v shorter than the %v refill time", p.Horizon(), 10*time.Second)
	}
	if q := NewLimiterPool(500, 50); q.Horizon() < time.Second {
		t.Fatalf("horizon floor missing: %v", q.Horizon())
	}
}

func TestLimiterPoolNilSafeReads(t *testing.T) {
	var p *LimiterPool
	if p.Peek("k") != nil || p.Len() != 0 {
		t.Fatal("nil pool reads not safe")
	}
}

func TestLimiterPoolBadParamsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for zero rate")
		}
	}()
	NewLimiterPool(0, 1)
}
