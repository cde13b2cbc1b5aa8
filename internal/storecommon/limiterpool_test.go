package storecommon

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"azurebench/internal/snapshot"
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

// TestLimiterHandleIsGet: one key sequence driven through Get on one pool
// and through long-lived handles on another leaves the two pools alike at
// every step — the same entries, the same buckets, the same rejects — and
// saving the same bytes, across sweeps that evict and keys that come back.
func TestLimiterHandleIsGet(t *testing.T) {
	byKey, byHandle := NewLimiterPool(20, 5), NewLimiterPool(20, 5)
	handles := map[string]*LimiterHandle{}
	keys := []string{"a", "b", "c", "d", "e", "f", "g", "h", "i", "j"}
	rng := rand.New(rand.NewSource(1))
	now := time.Duration(0)
	for step := 0; step < 5000; step++ {
		// Mostly short steps, now and then a pause past the horizon.
		now += time.Duration(rng.Intn(40)) * time.Millisecond
		if rng.Intn(50) == 0 {
			now += byKey.Horizon() + time.Duration(rng.Intn(1000))*time.Millisecond
		}
		key := keys[rng.Intn(1+rng.Intn(len(keys)))]
		if handles[key] == nil {
			h := NewLimiterHandle(key)
			handles[key] = &h
		}
		a, b := byKey.Get(now, key), byHandle.At(now, handles[key])
		if a.Allow(now, 1) != b.Allow(now, 1) || *a != *b {
			t.Fatalf("step %d: key %q: Get %+v, handle %+v", step, key, *a, *b)
		}
		if byKey.Len() != byHandle.Len() {
			t.Fatalf("step %d: Len %d by key, %d by handle", step, byKey.Len(), byHandle.Len())
		}
		for _, k := range keys {
			pa, pb := byKey.Peek(k), byHandle.Peek(k)
			if (pa == nil) != (pb == nil) || pa != nil && (*pa != *pb || pa.Rejects() != pb.Rejects()) {
				t.Fatalf("step %d: Peek(%q) %v by key, %v by handle", step, k, pa, pb)
			}
		}
	}
	var wa, wb snapshot.Writer
	byKey.Save(&wa)
	byHandle.Save(&wb)
	if !bytes.Equal(wa.Bytes(), wb.Bytes()) {
		t.Fatal("the two pools save different bytes")
	}
}

// TestLimiterHandleAfterLoad: a handle taken before Load finds the loaded
// bucket, not the one it held.
func TestLimiterHandleAfterLoad(t *testing.T) {
	p := NewLimiterPool(20, 5)
	h := NewLimiterHandle("k")
	p.At(0, &h).Allow(0, 5) // drain it
	var w snapshot.Writer
	p.Save(&w)
	before := p.At(0, &h)
	if err := p.Load(snapshot.NewReader(w.Bytes())); err != nil {
		t.Fatal(err)
	}
	if after := p.At(0, &h); after == before || after != p.Peek("k") || after.Allow(0, 1) {
		t.Fatal("the handle kept the bucket Load replaced")
	}
}
