// Package retry is the resilient retry-policy framework shared by the
// simulated cloud client (internal/cloud) and the live-mode SDK
// (internal/sdk). A Policy decides which errors are worth reissuing,
// bounds the attempt count, shapes the backoff curve (fixed or
// exponential, with optional jitter and a delay cap) and enforces a per-op
// deadline.
//
// The package is deliberately free of clocks and sleeps: callers own time
// (virtual time in the simulation, wall time in live mode) and ask the
// policy two questions per failure — ShouldRetry and Delay. Randomness for
// jitter is likewise passed in, so the simulation's deterministic PRNG and
// live mode's math/rand both plug in unchanged, and a zero-jitter policy
// never draws random numbers at all (which keeps fault-free simulations
// bit-identical to the pre-retry-framework behaviour).
package retry

import (
	"math"
	"time"

	"azurebench/internal/storecommon"
)

// Policy controls how an operation is retried.
type Policy struct {
	// MaxAttempts bounds total attempts (first try + retries). <= 0 means
	// a single attempt, i.e. no retries.
	MaxAttempts int
	// BaseDelay is the backoff before the first retry.
	BaseDelay time.Duration
	// Multiplier grows the backoff per retry (1 or 0 = fixed backoff).
	Multiplier float64
	// MaxDelay caps the grown backoff (0 = uncapped).
	MaxDelay time.Duration
	// Jitter spreads each backoff multiplicatively by ±Jitter (e.g. 0.2
	// turns d into a uniform draw from [0.8d, 1.2d]). 0 disables jitter
	// and the policy never consumes randomness.
	Jitter float64
	// Deadline bounds the whole operation including backoff sleeps: once
	// the elapsed time reaches it no further retry is attempted. 0 means
	// no deadline.
	Deadline time.Duration
	// Classify reports whether an error is worth retrying. nil defaults
	// to storecommon.IsRetriable (throttles + transient faults).
	Classify func(error) bool
}

// Paper returns the retry discipline of the source paper's benchmark:
// sleep a fixed backoff and reissue, but only for ServerBusy throttling.
// The attempt cap is a safety net against a limiter that never recovers —
// large enough that no converging workload ever hits it.
func Paper(backoff time.Duration) Policy {
	return Policy{
		MaxAttempts: 10000,
		BaseDelay:   backoff,
		Multiplier:  1,
		Classify:    storecommon.IsServerBusy,
	}
}

// Resilient returns a production-style policy: exponential backoff with
// jitter, capped delay, bounded attempts and a per-op deadline, retrying
// both throttles and transient faults.
func Resilient() Policy {
	return Policy{
		MaxAttempts: 8,
		BaseDelay:   250 * time.Millisecond,
		Multiplier:  2,
		MaxDelay:    8 * time.Second,
		Jitter:      0.2,
		Deadline:    2 * time.Minute,
	}
}

// classify applies Classify or its default.
func (p Policy) classify(err error) bool {
	if p.Classify != nil {
		return p.Classify(err)
	}
	return storecommon.IsRetriable(err)
}

// ShouldRetry reports whether, after the (retries+1)-th attempt failed
// with err at elapsed time since the operation began, another attempt
// should be made.
func (p Policy) ShouldRetry(retries int, elapsed time.Duration, err error) bool {
	if err == nil || !p.classify(err) {
		return false
	}
	if retries+1 >= p.MaxAttempts {
		return false
	}
	return p.Deadline <= 0 || elapsed < p.Deadline
}

// Delay returns the backoff before the (retries+1)-th retry. rnd supplies
// a uniform draw from [0, 1) for jitter; it is only called when Jitter is
// non-zero, so deterministic callers pay no PRNG perturbation for
// jitter-free policies. A nil rnd disables jitter.
func (p Policy) Delay(retries int, rnd func() float64) time.Duration {
	d := float64(p.BaseDelay)
	if m := p.Multiplier; m > 1 && retries > 0 {
		d *= math.Pow(m, float64(retries))
	}
	// An uncapped policy is still capped at the largest Duration, while d
	// is a float: past MaxInt64 the conversion below is implementation-
	// defined (negative on amd64, which every Sleep treats as "do not
	// wait" — an unthrottled retry loop), and +Inf times a zero jitter
	// factor would be NaN.
	limit := float64(math.MaxInt64)
	if p.MaxDelay > 0 {
		limit = float64(p.MaxDelay)
	}
	d = math.Min(d, limit)
	if p.Jitter > 0 && rnd != nil {
		d *= 1 + p.Jitter*(2*rnd()-1)
	}
	if d >= math.MaxInt64 {
		return math.MaxInt64
	}
	if d < 0 {
		d = 0
	}
	return time.Duration(d)
}
