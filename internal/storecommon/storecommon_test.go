package storecommon

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestErrorFormatting(t *testing.T) {
	err := Errf(CodeBlobNotFound, 404, "blob %q missing", "x")
	want := `BlobNotFound (404): blob "x" missing`
	if err.Error() != want {
		t.Fatalf("Error() = %q, want %q", err.Error(), want)
	}
}

func TestCodeOfAndStatusOf(t *testing.T) {
	err := fmt.Errorf("wrapped: %w", Errf(CodeServerBusy, 503, "busy"))
	if CodeOf(err) != CodeServerBusy {
		t.Fatalf("CodeOf = %q", CodeOf(err))
	}
	if StatusOf(err) != 503 {
		t.Fatalf("StatusOf = %d", StatusOf(err))
	}
	if CodeOf(errors.New("plain")) != "" {
		t.Fatal("CodeOf(plain) != \"\"")
	}
	if StatusOf(errors.New("plain")) != 500 {
		t.Fatal("StatusOf(plain) != 500")
	}
	if StatusOf(nil) != 0 {
		t.Fatal("StatusOf(nil) != 0")
	}
}

func TestErrorPredicates(t *testing.T) {
	cases := []struct {
		code                              Code
		busy, notFound, conflict, precond bool
	}{
		{CodeServerBusy, true, false, false, false},
		{CodeAccountTransactionLimit, true, false, false, false},
		{CodeAccountBandwidthLimit, true, false, false, false},
		{CodeBlobNotFound, false, true, false, false},
		{CodeQueueNotFound, false, true, false, false},
		{CodeEntityNotFound, false, true, false, false},
		{CodeContainerAlreadyExists, false, false, true, false},
		{CodeEntityAlreadyExists, false, false, true, false},
		{CodeConditionNotMet, false, false, false, true},
		{CodeUpdateConditionNotMet, false, false, false, true},
		{CodePopReceiptMismatch, false, false, false, true},
		{CodeInvalidInput, false, false, false, false},
	}
	for _, c := range cases {
		bare := Errf(c.code, 400, "x")
		wrapped := fmt.Errorf("while testing: %w", bare)
		for _, err := range []error{bare, wrapped, fmt.Errorf("again: %w", wrapped)} {
			if CodeOf(err) != c.code || StatusOf(err) != 400 {
				t.Errorf("CodeOf, StatusOf(%v) = %q, %d", err, CodeOf(err), StatusOf(err))
			}
			if IsServerBusy(err) != c.busy {
				t.Errorf("IsServerBusy(%v) = %v", err, !c.busy)
			}
			if IsNotFound(err) != c.notFound {
				t.Errorf("IsNotFound(%v) = %v", err, !c.notFound)
			}
			if IsConflict(err) != c.conflict {
				t.Errorf("IsConflict(%v) = %v", err, !c.conflict)
			}
			if IsPreconditionFailed(err) != c.precond {
				t.Errorf("IsPreconditionFailed(%v) = %v", err, !c.precond)
			}
		}
	}
	for _, err := range []error{nil, errors.New("plain"), fmt.Errorf("wrapped: %w", errors.New("plain"))} {
		if CodeOf(err) != "" || IsServerBusy(err) || IsTransient(err) || IsNotFound(err) || IsConflict(err) || IsPreconditionFailed(err) {
			t.Errorf("%v classified as a storage error", err)
		}
	}
}

// The predicates run after every operation, mostly on nil: classifying nil
// or an engine's own *Error must not allocate.
func TestClassifyingAllocatesNothing(t *testing.T) {
	var notFound error = Errf(CodeEntityNotFound, 404, "x")
	for name, err := range map[string]error{"nil": nil, "bare": notFound} {
		allocs := testing.AllocsPerRun(100, func() {
			_ = CodeOf(err)
			_ = StatusOf(err)
			_ = IsNotFound(err) || IsRetriable(err) || IsConflict(err) || IsPreconditionFailed(err)
		})
		if allocs != 0 {
			t.Errorf("%s error: %v allocations, want 0", name, allocs)
		}
	}
}

func TestValidateContainerName(t *testing.T) {
	valid := []string{"abc", "my-container", "a1b2c3", "x0-1-2", strings.Repeat("a", 63)}
	for _, name := range valid {
		if err := ValidateContainerName(name); err != nil {
			t.Errorf("ValidateContainerName(%q) = %v, want nil", name, err)
		}
	}
	invalid := []string{"", "ab", strings.Repeat("a", 64), "Abc", "-abc", "abc-", "a--b", "a_b", "a.b", "a b"}
	for _, name := range invalid {
		if err := ValidateContainerName(name); err == nil {
			t.Errorf("ValidateContainerName(%q) = nil, want error", name)
		}
	}
}

func TestValidateQueueName(t *testing.T) {
	if err := ValidateQueueName("azurebench-queue-0"); err != nil {
		t.Fatal(err)
	}
	if err := ValidateQueueName("UPPER"); err == nil {
		t.Fatal("uppercase queue name accepted")
	}
}

func TestValidateBlobName(t *testing.T) {
	valid := []string{"b", "dir/sub/blob.bin", strings.Repeat("x", 1024), "UPPER and spaces"}
	for _, name := range valid {
		if err := ValidateBlobName(name); err != nil {
			t.Errorf("ValidateBlobName(%q) = %v", name, err)
		}
	}
	invalid := []string{"", strings.Repeat("x", 1025), "dir/", "a/./b", "a/../b"}
	for _, name := range invalid {
		if err := ValidateBlobName(name); err == nil {
			t.Errorf("ValidateBlobName(%q) accepted", name)
		}
	}
}

func TestValidateTableName(t *testing.T) {
	valid := []string{"abc", "AzureBenchTable", "T0123"}
	for _, name := range valid {
		if err := ValidateTableName(name); err != nil {
			t.Errorf("ValidateTableName(%q) = %v", name, err)
		}
	}
	invalid := []string{"", "ab", "0abc", "my-table", strings.Repeat("a", 64)}
	for _, name := range invalid {
		if err := ValidateTableName(name); err == nil {
			t.Errorf("ValidateTableName(%q) accepted", name)
		}
	}
}

func TestValidateKey(t *testing.T) {
	if err := ValidateKey("worker-07", "partition"); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"a/b", `a\b`, "a#b", "a?b", "a\x01b", strings.Repeat("k", KB+1)} {
		if err := ValidateKey(k, "row"); err == nil {
			t.Errorf("ValidateKey(%q) accepted", k)
		}
	}
}

func TestETagGenMonotonicUnique(t *testing.T) {
	var g ETagGen
	now := time.Date(2012, 5, 21, 0, 0, 0, 0, time.UTC)
	seen := map[string]bool{}
	for i := 0; i < 100; i++ {
		tag := g.Next(now) // same timestamp: counter must disambiguate
		if seen[tag] {
			t.Fatalf("duplicate ETag %q", tag)
		}
		seen[tag] = true
	}
}

// TestETagBytesMatchTheFmtForm: Next is built in place and must read as
// the Sprintf/Format expression it replaced, byte for byte.
func TestETagBytesMatchTheFmtForm(t *testing.T) {
	instants := []time.Time{
		{},
		time.Date(2012, 5, 21, 0, 0, 0, 0, time.UTC),
		time.Date(2012, 5, 21, 13, 4, 5, 99, time.UTC), // under 100 ns: truncated away
		time.Date(2026, 12, 31, 23, 59, 59, 999_999_999, time.FixedZone("east", 5*3600)),
		time.Unix(0, 1234567).In(time.FixedZone("west", -8*3600)),
	}
	for _, now := range instants {
		for _, n := range []uint64{1, 99, 100, 1 << 32, 1<<32 + 7} {
			var g ETagGen
			g.counter.Store(n - 1)
			want := fmt.Sprintf("W/\"datetime'%s';%d\"", now.UTC().Format("2006-01-02T15:04:05.0000000Z"), n)
			if got := g.Next(now); got != want {
				t.Errorf("Next(%v) at %d = %s, want %s", now, n, got, want)
			}
		}
	}
}

// TestETagStampMatchesAppendFormat holds the directly written timestamp to
// the layout it replaced, byte for byte, over instants drawn across years
// 1…9999 at every resolution the layout shows, plus the edges.
func TestETagStampMatchesAppendFormat(t *testing.T) {
	const layout = "2006-01-02T15:04:05.0000000Z"
	lo := time.Date(1, 1, 1, 0, 0, 0, 0, time.UTC)
	hi := time.Date(9999, 12, 31, 23, 59, 59, 999_999_999, time.UTC)
	instants := []time.Time{lo, hi, lo.Add(99), time.Date(2000, 2, 29, 9, 9, 9, 100, time.UTC)}
	rng := rand.New(rand.NewSource(1))
	span := hi.Sub(lo) // about 292 years: the draws are taken in steps of it
	for range 20_000 {
		at := lo.Add(time.Duration(rng.Int63n(int64(span))))
		for range rng.Intn(35) {
			at = at.Add(span)
		}
		if at.After(hi) {
			continue
		}
		instants = append(instants, at)
	}
	for _, at := range instants {
		if got, want := appendStamp(nil, at), at.AppendFormat(nil, layout); string(got) != string(want) {
			t.Fatalf("appendStamp(%v) = %s, want %s", at, got, want)
		}
	}
}

// The returned tag is Next's only allocation.
func TestETagGenAllocatesOnlyTheTag(t *testing.T) {
	var g ETagGen
	now := time.Date(2012, 5, 21, 13, 4, 5, 6789, time.UTC)
	if allocs := testing.AllocsPerRun(100, func() { g.Next(now) }); allocs > 1 {
		t.Fatalf("Next: %v allocations, want 1", allocs)
	}
}

func TestETagMatches(t *testing.T) {
	if !ETagMatches("", "abc") {
		t.Error("empty condition should match")
	}
	if !ETagMatches(ETagAny, "abc") {
		t.Error("wildcard should match")
	}
	if !ETagMatches("abc", "abc") {
		t.Error("equal tags should match")
	}
	if ETagMatches("abc", "def") {
		t.Error("different tags matched")
	}
}

func TestRateLimiterBasics(t *testing.T) {
	l := NewRateLimiter(10, 5) // 10/s, burst 5
	now := time.Duration(0)
	for i := 0; i < 5; i++ {
		if !l.Allow(now, 1) {
			t.Fatalf("burst token %d denied", i)
		}
	}
	if l.Allow(now, 1) {
		t.Fatal("6th token allowed with empty bucket")
	}
	// After 100ms one token refills.
	now += 100 * time.Millisecond
	if !l.Allow(now, 1) {
		t.Fatal("token after refill denied")
	}
	if l.Allow(now, 1) {
		t.Fatal("second token allowed after single refill")
	}
}

func TestRateLimiterCapsAtBurst(t *testing.T) {
	l := NewRateLimiter(1000, 3)
	// An hour of refill at 1000/s still leaves exactly the burst.
	if l.Allow(time.Hour, 4) || !l.Allow(time.Hour, 3) {
		t.Fatal("bucket not capped at burst 3")
	}
}

func TestRateLimiterSustainedRate(t *testing.T) {
	// Admitted ops over a long window must approximate rate*window.
	l := NewRateLimiter(500, 500)
	admitted := 0
	for ms := 0; ms < 10_000; ms++ {
		if l.Allow(time.Duration(ms)*time.Millisecond, 1) {
			admitted++
		}
	}
	// 10s at 500/s = 5000 plus initial burst 500.
	if admitted < 5400 || admitted > 5600 {
		t.Fatalf("admitted = %d, want ~5500", admitted)
	}
}

func TestRateLimiterPropertyNeverExceedsBudget(t *testing.T) {
	if err := quick.Check(func(seed int64, steps uint8) bool {
		l := NewRateLimiter(100, 10)
		now := time.Duration(0)
		admitted := 0.0
		n := int(steps%100) + 1
		s := seed
		for i := 0; i < n; i++ {
			s = s*6364136223846793005 + 1442695040888963407
			now += time.Duration(uint64(s) % uint64(50*time.Millisecond))
			if l.Allow(now, 1) {
				admitted++
			}
		}
		// Total admitted must never exceed burst + rate * elapsed.
		budget := 10 + 100*now.Seconds() + 1e-9
		return admitted <= budget
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRateLimiterBadParamsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for zero rate")
		}
	}()
	NewRateLimiter(0, 1)
}

// allCodes enumerates every Code constant; the retriability matrix below
// must classify each one explicitly so a new code cannot slip into (or
// out of) the retriable set unnoticed.
var allCodes = []Code{
	CodeServerBusy, CodeInternalError, CodeInvalidInput, CodeOutOfRangeInput,
	CodeResourceNotFound, CodeResourceAlreadyExists, CodeConditionNotMet,
	CodeContainerNotFound, CodeContainerAlreadyExists, CodeBlobNotFound,
	CodeBlobAlreadyExists, CodeInvalidBlockID, CodeInvalidBlockList,
	CodeInvalidPageRange, CodeBlockCountExceedsLimit, CodeRequestBodyTooLarge,
	CodeLeaseAlreadyPresent, CodeLeaseIDMissing, CodeLeaseIDMismatch,
	CodeLeaseNotPresent, CodeQueueNotFound, CodeQueueAlreadyExists,
	CodeMessageNotFound, CodeMessageTooLarge, CodePopReceiptMismatch,
	CodeInvalidVisibility, CodeTableNotFound, CodeTableAlreadyExists,
	CodeEntityNotFound, CodeEntityAlreadyExists, CodeEntityTooLarge,
	CodePropertyLimitExceeded, CodeUpdateConditionNotMet, CodeInvalidQuery,
	CodeAccountBandwidthLimit, CodeOperationTimedOut, CodeInvalidResourceName,
	CodeOutOfCapacity, CodeBatchPartitionMismatch, CodeBatchTooManyOperations,
	CodeBatchDuplicateRowKey, CodeSnapshotNotFound, CodeInstanceUnavailable,
	CodeUnsupportedHTTPVerb, CodeMissingRequiredHeader, CodeAuthenticationFailed,
	CodeAccountTransactionLimit, CodeServerUnavailable, CodeConnectionReset,
	CodePartitionMoved, CodeOutOfRangeQueryParameterValue,
}

func TestRetriableCoversEveryCode(t *testing.T) {
	transient := map[Code]bool{
		CodeInternalError:     true,
		CodeOperationTimedOut: true,
		CodeConnectionReset:   true,
		CodeServerUnavailable: true,
		// RoleInstanceUnavailable predates the fault model: a role instance
		// mid-restart, gone shortly after.
		CodeInstanceUnavailable: true,
		// A stale partition map resolves itself on refresh: the retry layer
		// reissues and the client re-fetches the current map.
		CodePartitionMoved: true,
	}
	busy := map[Code]bool{
		CodeServerBusy:              true,
		CodeAccountTransactionLimit: true,
		CodeAccountBandwidthLimit:   true,
	}
	seen := map[Code]bool{}
	for _, code := range allCodes {
		if seen[code] {
			t.Fatalf("code %s listed twice", code)
		}
		seen[code] = true
		err := Errf(code, 500, "x")
		if got, want := IsTransient(err), transient[code]; got != want {
			t.Errorf("IsTransient(%s) = %v, want %v", code, got, want)
		}
		if got, want := IsRetriable(err), transient[code] || busy[code]; got != want {
			t.Errorf("IsRetriable(%s) = %v, want %v", code, got, want)
		}
		// Throttles are retriable but not transient: they carry their own
		// backoff contract.
		if IsServerBusy(err) && IsTransient(err) {
			t.Errorf("code %s classified both busy and transient", code)
		}
	}
	// Non-storage and nil errors are never retriable.
	if IsRetriable(errors.New("plain")) || IsTransient(errors.New("plain")) {
		t.Error("plain error classified retriable")
	}
	if IsRetriable(nil) || IsTransient(nil) {
		t.Error("nil error classified retriable")
	}
	// Wrapped storage errors keep their classification.
	if !IsRetriable(fmt.Errorf("wrapped: %w", Errf(CodeConnectionReset, 0, "rst"))) {
		t.Error("wrapped reset not retriable")
	}
}
