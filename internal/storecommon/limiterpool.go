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

// poolEntry holds its limiter inline: a bucket is one allocation. pool is
// the pool whose map holds the entry, nil once it has left the map.
type poolEntry struct {
	lim      RateLimiter
	lastUsed time.Duration
	pool     *LimiterPool
}

// LimiterHandle names one key's limiter in a pool and remembers the entry
// it found there, so that At skips the map while that entry is live.
type LimiterHandle struct {
	key string
	e   *poolEntry
}

// NewLimiterHandle returns a handle on key's limiter in any pool.
func NewLimiterHandle(key string) LimiterHandle { return LimiterHandle{key: key} }

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
	h := LimiterHandle{key: key}
	return p.At(now, &h)
}

// At is Get of h's key. It uses the entry h last found while that entry is
// still this pool's; once a sweep or Load has taken it out, At finds the
// key's entry as Get does, so pool contents never depend on which was
// called.
func (p *LimiterPool) At(now time.Duration, h *LimiterHandle) *RateLimiter {
	if now-p.lastSweep >= p.horizon {
		p.lastSweep = now
		for k, e := range p.entries {
			if now-e.lastUsed >= p.horizon {
				e.pool = nil
				delete(p.entries, k)
			}
		}
	}
	if h.e == nil || h.e.pool != p {
		if h.e = p.entries[h.key]; h.e == nil {
			h.e = &poolEntry{lim: RateLimiter{rate: p.rate, burst: p.burst, tokens: p.burst}, pool: p}
			p.entries[h.key] = h.e
		}
	}
	h.e.lastUsed = now
	return &h.e.lim
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
