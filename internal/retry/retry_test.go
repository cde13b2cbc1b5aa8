package retry

import (
	"errors"
	"math"
	"testing"
	"time"

	"azurebench/internal/storecommon"
)

var errBusy = storecommon.Errf(storecommon.CodeServerBusy, 503, "busy")
var errFault = storecommon.Errf(storecommon.CodeInternalError, 500, "boom")
var errFatal = storecommon.Errf(storecommon.CodeBlobNotFound, 404, "gone")

func TestShouldRetryClassification(t *testing.T) {
	p := Policy{MaxAttempts: 5}
	if p.ShouldRetry(0, 0, nil) {
		t.Error("retried nil error")
	}
	if p.ShouldRetry(0, 0, errFatal) {
		t.Error("retried non-retriable error")
	}
	if p.ShouldRetry(0, 0, errors.New("plain")) {
		t.Error("retried unclassified plain error")
	}
	if !p.ShouldRetry(0, 0, errBusy) || !p.ShouldRetry(0, 0, errFault) {
		t.Error("did not retry retriable errors")
	}

	busyOnly := Policy{MaxAttempts: 5, Classify: storecommon.IsServerBusy}
	if busyOnly.ShouldRetry(0, 0, errFault) {
		t.Error("busy-only policy retried a transient fault")
	}
	if !busyOnly.ShouldRetry(0, 0, errBusy) {
		t.Error("busy-only policy did not retry ServerBusy")
	}
}

func TestShouldRetryAttemptCap(t *testing.T) {
	p := Policy{MaxAttempts: 3}
	if !p.ShouldRetry(0, 0, errBusy) || !p.ShouldRetry(1, 0, errBusy) {
		t.Error("stopped before the attempt cap")
	}
	if p.ShouldRetry(2, 0, errBusy) {
		t.Error("exceeded MaxAttempts")
	}
	single := Policy{} // MaxAttempts <= 0: one attempt, no retries
	if single.ShouldRetry(0, 0, errBusy) {
		t.Error("zero policy retried")
	}
}

func TestShouldRetryDeadline(t *testing.T) {
	p := Policy{MaxAttempts: 100, Deadline: time.Minute}
	if !p.ShouldRetry(0, 59*time.Second, errBusy) {
		t.Error("stopped before the deadline")
	}
	if p.ShouldRetry(0, time.Minute, errBusy) {
		t.Error("retried at the deadline")
	}
}

func TestDelayShape(t *testing.T) {
	p := Policy{BaseDelay: 100 * time.Millisecond, Multiplier: 2, MaxDelay: 500 * time.Millisecond}
	want := []time.Duration{
		100 * time.Millisecond, 200 * time.Millisecond, 400 * time.Millisecond,
		500 * time.Millisecond, 500 * time.Millisecond, // capped
	}
	for i, w := range want {
		if got := p.Delay(i, nil); got != w {
			t.Errorf("Delay(%d) = %v, want %v", i, got, w)
		}
	}
	fixed := Policy{BaseDelay: time.Second, Multiplier: 1}
	for i := 0; i < 4; i++ {
		if got := fixed.Delay(i, nil); got != time.Second {
			t.Errorf("fixed Delay(%d) = %v", i, got)
		}
	}
}

func TestDelayJitter(t *testing.T) {
	p := Policy{BaseDelay: time.Second, Jitter: 0.5}
	if got := p.Delay(0, func() float64 { return 0 }); got != 500*time.Millisecond {
		t.Errorf("low jitter draw: %v", got)
	}
	if got := p.Delay(0, func() float64 { return 0.5 }); got != time.Second {
		t.Errorf("mid jitter draw: %v", got)
	}
	// Zero jitter must not consume randomness.
	drew := false
	nojit := Policy{BaseDelay: time.Second}
	nojit.Delay(0, func() float64 { drew = true; return 0 })
	if drew {
		t.Error("jitter-free policy drew a random number")
	}
}

// TestDelayNeverNegative: an uncapped exponential policy saturates at the
// largest Duration instead of overflowing into a negative one (which both
// time.Sleep and sim.Proc.Sleep treat as zero), with or without jitter.
func TestDelayNeverNegative(t *testing.T) {
	for _, tc := range []struct {
		name   string
		jitter float64
		rnd    func() float64
	}{
		{"no jitter", 0, nil},
		{"jitter, low draw", 0.5, func() float64 { return 0 }},
		{"jitter, high draw", 0.5, func() float64 { return 0.999 }},
	} {
		p := Policy{BaseDelay: 100 * time.Millisecond, Multiplier: 2, Jitter: tc.jitter}
		var prev time.Duration
		for retries := 0; retries <= 2000; retries++ {
			d := p.Delay(retries, tc.rnd)
			if d < prev {
				t.Fatalf("%s: Delay(%d) = %v after Delay(%d) = %v", tc.name, retries, d, retries-1, prev)
			}
			prev = d
		}
		if prev < math.MaxInt64/2 {
			t.Errorf("%s: Delay(2000) = %v, want saturation near the largest Duration", tc.name, prev)
		}
	}
}

func TestPresets(t *testing.T) {
	paper := Paper(time.Second)
	if paper.Delay(0, nil) != time.Second || paper.Delay(7, nil) != time.Second {
		t.Error("paper policy backoff is not fixed")
	}
	if paper.ShouldRetry(0, 0, errFault) {
		t.Error("paper policy retried a transient fault")
	}
	if !paper.ShouldRetry(0, time.Hour, errBusy) {
		t.Error("paper policy has a deadline")
	}
	res := Resilient()
	if !res.ShouldRetry(0, 0, errFault) || !res.ShouldRetry(0, 0, errBusy) {
		t.Error("resilient policy rejected retriable errors")
	}
	if res.ShouldRetry(0, res.Deadline, errBusy) {
		t.Error("resilient policy ignored its deadline")
	}
}
