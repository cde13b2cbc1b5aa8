package sdk

import (
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"azurebench/internal/retry"
	"azurebench/internal/sim"
	"azurebench/internal/storecommon"
)

// flakyServer fails the first n requests with the given storage error,
// then serves 200s with the body "ok".
func flakyServer(t *testing.T, n int, code storecommon.Code, status int) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var calls atomic.Int64
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= int64(n) {
			w.Header().Set("x-ms-error-code", string(code))
			w.WriteHeader(status)
			return
		}
		w.Write([]byte("ok"))
	}))
	t.Cleanup(hs.Close)
	return hs, &calls
}

// paperPolicy is the paper's ServerBusy-only discipline with a test-sized
// backoff and the given number of retries.
func paperPolicy(retries int, backoff time.Duration) retry.Policy {
	pol := retry.Paper(backoff)
	pol.MaxAttempts = retries + 1
	return pol
}

func TestTransientRetriedWhenEnabled(t *testing.T) {
	hs, calls := flakyServer(t, 2, storecommon.CodeInternalError, 500)
	// A nil Classify retries throttles and transient faults alike.
	c := New(hs.URL, hs.Client(), retry.Policy{MaxAttempts: 4, BaseDelay: time.Millisecond})
	got, err := c.Blob().Download("demo", "blob")
	if err != nil {
		t.Fatalf("download after transient 500s: %v", err)
	}
	if string(got) != "ok" || calls.Load() != 3 {
		t.Fatalf("got %q after %d calls", got, calls.Load())
	}
}

func TestTransientNotRetriedByDefault(t *testing.T) {
	hs, calls := flakyServer(t, 2, storecommon.CodeInternalError, 500)
	c := New(hs.URL, hs.Client(), paperPolicy(3, time.Millisecond))
	_, err := c.Blob().Download("demo", "blob")
	if storecommon.CodeOf(err) != storecommon.CodeInternalError {
		t.Fatalf("err = %v", err)
	}
	if calls.Load() != 1 {
		t.Fatalf("paper policy reissued a 500 (%d calls)", calls.Load())
	}
}

func TestBusyStillRetriedByDefault(t *testing.T) {
	hs, calls := flakyServer(t, 2, storecommon.CodeServerBusy, 503)
	c := New(hs.URL, hs.Client(), paperPolicy(3, time.Millisecond))
	if _, err := c.Blob().Download("demo", "blob"); err != nil {
		t.Fatalf("download after throttles: %v", err)
	}
	if calls.Load() != 3 {
		t.Fatalf("calls = %d, want 3", calls.Load())
	}
}

func TestRetriesExhaustReturnLastError(t *testing.T) {
	hs, calls := flakyServer(t, 100, storecommon.CodeServerBusy, 503)
	c := New(hs.URL, hs.Client(), paperPolicy(2, time.Millisecond))
	_, err := c.Blob().Download("demo", "blob")
	if storecommon.CodeOf(err) != storecommon.CodeServerBusy {
		t.Fatalf("err = %v", err)
	}
	if calls.Load() != 3 {
		t.Fatalf("calls = %d, want MaxAttempts = 3", calls.Load())
	}
}

func TestTransportErrorIsConnectionReset(t *testing.T) {
	hs := httptest.NewServer(http.NewServeMux())
	url := hs.URL
	hs.Close() // nothing listens: every dial dies before an HTTP status
	c := New(url, nil, retry.Policy{})
	_, err := c.Blob().Download("demo", "blob")
	if storecommon.CodeOf(err) != storecommon.CodeConnectionReset {
		t.Fatalf("transport failure surfaced as %v", err)
	}
	if !storecommon.IsRetriable(err) {
		t.Fatal("connection reset not classified retriable")
	}
	if storecommon.StatusOf(err) != 0 {
		t.Fatalf("reset carries status %d, want 0", storecommon.StatusOf(err))
	}
}

// TestZeroPolicyMakesOneAttempt: the zero retry.Policy means no retries,
// even for an error every preset would reissue.
func TestZeroPolicyMakesOneAttempt(t *testing.T) {
	hs, calls := flakyServer(t, 1, storecommon.CodeServerBusy, 503)
	c := New(hs.URL, hs.Client(), retry.Policy{})
	if _, err := c.Blob().Download("demo", "blob"); storecommon.CodeOf(err) != storecommon.CodeServerBusy {
		t.Fatalf("err = %v, want ServerBusy", err)
	}
	if calls.Load() != 1 {
		t.Fatalf("zero policy made %d attempts, want 1", calls.Load())
	}
}

// TestResilientRetryPolicyShape contrasts the two presets an SDK caller
// picks between: retry.Resilient() backs off exponentially and reissues
// transient faults, DefaultRetryPolicy() is the paper's fixed one-second
// sleep on ServerBusy and nothing else.
func TestResilientRetryPolicyShape(t *testing.T) {
	busy := storecommon.Errf(storecommon.CodeServerBusy, 503, "x")
	timeout := storecommon.Errf(storecommon.CodeOperationTimedOut, 500, "x")
	res := retry.Resilient()
	if res.Multiplier <= 1 || res.Jitter <= 0 || res.Deadline <= 0 {
		t.Fatalf("resilient preset lost its teeth: %+v", res)
	}
	if !res.ShouldRetry(0, 0, timeout) {
		t.Fatal("resilient policy rejects timeouts")
	}
	def := DefaultRetryPolicy()
	if !def.ShouldRetry(0, 0, busy) || !def.ShouldRetry(7, 0, busy) || def.ShouldRetry(8, 0, busy) {
		t.Fatal("paper policy does not allow exactly 8 ServerBusy retries")
	}
	if def.ShouldRetry(0, 0, timeout) {
		t.Fatal("paper policy retries timeouts")
	}
	if def.Delay(0, nil) != time.Second || def.Delay(5, nil) != time.Second {
		t.Fatal("paper policy backoff is not a fixed second")
	}
}

// TestJitterReproducibleWithInjectedRand pins down the behaviour of
// Client.jitter: with a seeded source injected, the whole backoff
// schedule — and therefore the total slept time the client reports — is a
// pure function of the seed, while the same policy under a different seed
// diverges.
func TestJitterReproducibleWithInjectedRand(t *testing.T) {
	run := func(seed int64) (retries int64, slept time.Duration) {
		hs, _ := flakyServer(t, 100, storecommon.CodeServerBusy, 503)
		c := New(hs.URL, hs.Client(), retry.Policy{
			MaxAttempts: 5,
			BaseDelay:   time.Millisecond,
			Multiplier:  2,
			Jitter:      0.5,
		})
		c.jitter = sim.NewRand(seed).Float64
		if _, err := c.Blob().Download("demo", "blob"); err == nil {
			t.Fatal("download succeeded against an always-busy server")
		}
		return c.RetryStats()
	}

	r1, s1 := run(42)
	r2, s2 := run(42)
	if r1 != r2 || s1 != s2 {
		t.Fatalf("same seed diverged: %d retries/%v vs %d retries/%v", r1, s1, r2, s2)
	}
	if s1 == 0 {
		t.Fatal("no backoff slept; jitter path not exercised")
	}
	r3, s3 := run(43)
	if r1 != r3 {
		t.Fatalf("retry counts differ across seeds: %d vs %d", r1, r3)
	}
	if s1 == s3 {
		t.Fatalf("different seeds produced identical jittered backoff (%v)", s1)
	}
}
