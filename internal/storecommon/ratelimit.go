package storecommon

import "time"

// RateLimiter is a token bucket over an externally supplied clock reading
// (virtual or wall). It is deliberately clock-agnostic: callers pass the
// current instant as a Duration offset from an arbitrary fixed origin.
//
// RateLimiter is not safe for concurrent use; wrap it in a mutex for live
// mode (the simulated cloud is single-threaded by construction).
type RateLimiter struct {
	rate    float64 // tokens per second
	burst   float64 // bucket capacity
	tokens  float64
	last    time.Duration
	rejects uint64
}

// NewRateLimiter returns a full bucket admitting rate tokens per second
// with capacity burst. rate and burst must be positive.
func NewRateLimiter(rate, burst float64) *RateLimiter {
	if rate <= 0 || burst <= 0 {
		panic("storecommon: non-positive rate limiter parameters")
	}
	return &RateLimiter{rate: rate, burst: burst, tokens: burst}
}

// Allow consumes n tokens if available at instant now and reports whether
// it succeeded. Instants must be non-decreasing across calls.
func (l *RateLimiter) Allow(now time.Duration, n float64) bool {
	l.refill(now)
	if l.tokens >= n {
		l.tokens -= n
		return true
	}
	l.rejects++
	return false
}

// Rejects returns how many Allow calls have been refused — the
// throttle-reject signal station telemetry samples.
func (l *RateLimiter) Rejects() uint64 { return l.rejects }

func (l *RateLimiter) refill(now time.Duration) {
	if now <= l.last {
		return
	}
	dt := (now - l.last).Seconds()
	l.last = now
	l.tokens += dt * l.rate
	if l.tokens > l.burst {
		l.tokens = l.burst
	}
}
