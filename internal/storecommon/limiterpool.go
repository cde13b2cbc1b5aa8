package storecommon

import "time"

// LimiterPool lazily creates one RateLimiter per key and deterministically
// evicts limiters idle past a refill horizon, so per-partition limiter
// maps stay bounded under many-key workloads (zipfian tails touch millions
// of distinct partitions once each).
//
// Eviction is behaviour-preserving: the horizon is at least burst/rate
// seconds, the time an untouched bucket needs to refill completely, so an
// evicted limiter is indistinguishable from the fresh full bucket a later
// Get would create. Only the Rejects counter restarts (telemetry clamps
// for that). Like RateLimiter, the pool is clock-agnostic and not safe for
// concurrent use.
type LimiterPool struct {
	rate, burst float64
	horizon     time.Duration
	entries     map[string]*poolEntry
	lastSweep   time.Duration
}

// poolEntry holds its limiter inline: a bucket is one allocation.
type poolEntry struct {
	lim      RateLimiter
	lastUsed time.Duration
}

// NewLimiterPool returns a pool of limiters with the given rate and burst.
// Both must be positive (the first Get would panic otherwise anyway).
func NewLimiterPool(rate, burst float64) *LimiterPool {
	if rate <= 0 || burst <= 0 {
		panic("storecommon: non-positive limiter pool parameters")
	}
	horizon := time.Duration(burst / rate * float64(time.Second))
	if horizon < time.Second {
		horizon = time.Second
	}
	return &LimiterPool{
		rate:    rate,
		burst:   burst,
		horizon: horizon,
		entries: map[string]*poolEntry{},
	}
}

// Get returns the limiter for key at instant now, creating a full bucket
// on first sight and marking the entry used. At most once per horizon the
// pool sweeps out entries idle a full horizon; the sweep's map iteration
// only deletes, so its order cannot influence behaviour.
func (p *LimiterPool) Get(now time.Duration, key string) *RateLimiter {
	if now-p.lastSweep >= p.horizon {
		p.lastSweep = now
		for k, e := range p.entries {
			if now-e.lastUsed >= p.horizon {
				delete(p.entries, k)
			}
		}
	}
	e := p.entries[key]
	if e == nil {
		e = &poolEntry{lim: RateLimiter{rate: p.rate, burst: p.burst, tokens: p.burst}}
		p.entries[key] = e
	}
	e.lastUsed = now
	return &e.lim
}

// Peek returns key's limiter without touching or creating it (nil when
// absent or when the pool itself is nil — stations of an idle service).
func (p *LimiterPool) Peek(key string) *RateLimiter {
	if p == nil {
		return nil
	}
	if e := p.entries[key]; e != nil {
		return &e.lim
	}
	return nil
}

// Len returns the number of live limiters (0 for a nil pool).
func (p *LimiterPool) Len() int {
	if p == nil {
		return 0
	}
	return len(p.entries)
}

// Horizon returns the idle span after which a limiter becomes evictable.
func (p *LimiterPool) Horizon() time.Duration { return p.horizon }
