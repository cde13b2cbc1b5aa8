package rest

import (
	"encoding/xml"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"azurebench/internal/payload"
	"azurebench/internal/storecommon"
	"azurebench/internal/vclock"
)

func doReq(t *testing.T, srv *Server, method, path string, headers map[string]string, body string) *http.Response {
	t.Helper()
	hs := httptest.NewServer(srv)
	defer hs.Close()
	req, err := http.NewRequest(method, hs.URL+path, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range headers {
		req.Header.Set(k, v)
	}
	resp, err := hs.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

func TestHealthEndpoint(t *testing.T) {
	resp := doReq(t, NewServer(Options{}), http.MethodGet, "/healthz", nil, "")
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
}

func TestVersionHeaderAlwaysPresent(t *testing.T) {
	resp := doReq(t, NewServer(Options{}), http.MethodGet, "/healthz", nil, "")
	if got := resp.Header.Get("x-ms-version"); got != "2011-08-18" {
		t.Fatalf("x-ms-version = %q", got)
	}
}

func TestErrorBodyIsAzureXML(t *testing.T) {
	resp := doReq(t, NewServer(Options{}), http.MethodGet, "/blob/absent/blob.bin", nil, "")
	if resp.StatusCode != 404 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if got := resp.Header.Get("x-ms-error-code"); got != "ContainerNotFound" {
		t.Fatalf("x-ms-error-code = %q", got)
	}
	raw, _ := io.ReadAll(resp.Body)
	var e struct {
		XMLName xml.Name `xml:"Error"`
		Code    string   `xml:"Code"`
		Message string   `xml:"Message"`
	}
	if err := xml.Unmarshal(raw, &e); err != nil {
		t.Fatalf("error body is not XML: %v (%q)", err, raw)
	}
	if e.Code != "ContainerNotFound" || e.Message == "" {
		t.Fatalf("error body = %+v", e)
	}
}

func TestMethodNotAllowed(t *testing.T) {
	srv := NewServer(Options{})
	if err := srv.Queue.CreateQueue("q-1"); err != nil {
		t.Fatal(err)
	}
	resp := doReq(t, srv, http.MethodPatch, "/queue/q-1", nil, "")
	if resp.StatusCode != 405 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if got := resp.Header.Get("x-ms-error-code"); got != "UnsupportedHttpVerb" {
		t.Fatalf("error code = %q", got)
	}
}

func TestBadMessageXMLRejected(t *testing.T) {
	srv := NewServer(Options{})
	if err := srv.Queue.CreateQueue("q-1"); err != nil {
		t.Fatal(err)
	}
	resp := doReq(t, srv, http.MethodPost, "/queue/q-1/messages", nil, "<not-xml")
	if resp.StatusCode != 400 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
}

func TestBadBase64Rejected(t *testing.T) {
	srv := NewServer(Options{})
	if err := srv.Queue.CreateQueue("q-1"); err != nil {
		t.Fatal(err)
	}
	resp := doReq(t, srv, http.MethodPost, "/queue/q-1/messages", nil,
		"<QueueMessage><MessageText>!!notbase64!!</MessageText></QueueMessage>")
	if resp.StatusCode != 400 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
}

func TestParseEntityKey(t *testing.T) {
	cases := []struct {
		in            string
		table, pk, rk string
		ok            bool
	}{
		{"People(PartitionKey='a',RowKey='b')", "People", "a", "b", true},
		{"People(PartitionKey='o''brien',RowKey='r')", "People", "o'brien", "r", true},
		{"People", "People", "", "", false},
		{"People(PartitionKey='a')", "People", "a", "", true},
	}
	for _, c := range cases {
		table, pk, rk, ok := parseEntityKey(c.in)
		if table != c.table || pk != c.pk || rk != c.rk || ok != c.ok {
			t.Errorf("parseEntityKey(%q) = %q,%q,%q,%v", c.in, table, pk, rk, ok)
		}
	}
}

func TestParseRange(t *testing.T) {
	off, n, err := parseRange("bytes=512-1535")
	if err != nil || off != 512 || n != 1024 {
		t.Fatalf("parseRange = %d,%d,%v", off, n, err)
	}
	for _, bad := range []string{"bytes=10", "bytes=a-b", "bytes=10-5"} {
		if _, _, err := parseRange(bad); err == nil {
			t.Errorf("parseRange(%q) accepted", bad)
		}
	}
}

func TestDecodeBlockListOrdered(t *testing.T) {
	refs, err := decodeBlockListOrdered([]byte(
		`<BlockList><Latest>b</Latest><Committed>a</Committed><Uncommitted>c</Uncommitted></BlockList>`))
	if err != nil {
		t.Fatal(err)
	}
	if len(refs) != 3 || refs[0].ID != "b" || refs[1].ID != "a" || refs[2].ID != "c" {
		t.Fatalf("refs = %+v (order must be preserved)", refs)
	}
}

func TestThrottlerIndependentScopes(t *testing.T) {
	th := newThrottler(Options{Clock: &vclock.Manual{}, QueueOpsPerSec: 10, AccountOpsPerSec: 1000})
	// Queue q1's bucket (burst 2) exhausts without touching q2's.
	granted := 0
	for i := 0; i < 5; i++ {
		if th.allow("q1", "") {
			granted++
		}
	}
	if granted >= 5 {
		t.Fatal("q1 never throttled")
	}
	if !th.allow("q2", "") {
		t.Fatal("q2 throttled by q1's bucket")
	}
}

// TestThrottlerBoundedAndVerdictPreserving drives one hot queue and one
// hot partition among 10 000 one-shot names. The per-name pools must not
// keep a limiter per name forever, and evicting idle ones must not change
// any verdict for the hot names: those must match a plain never-evicted
// RateLimiter, which is what the throttler kept per name before pooling.
func TestThrottlerBoundedAndVerdictPreserving(t *testing.T) {
	const rate = 50.0
	clock := &vclock.Manual{}
	th := newThrottler(Options{Clock: clock, QueueOpsPerSec: rate, PartitionOpsPerSec: rate, AccountOpsPerSec: 1e9})
	refQ := storecommon.NewRateLimiter(rate, rate/10+1)
	refP := storecommon.NewRateLimiter(rate, rate/10+1)
	var now time.Duration
	for i := 0; i < 10000; i++ {
		clock.Advance(3 * time.Millisecond)
		now += 3 * time.Millisecond
		cold := strconv.Itoa(i)
		if !th.allow("q"+cold, "") || !th.allow("", "p"+cold) {
			t.Fatalf("first request to a fresh name throttled at step %d", i)
		}
		if got, want := th.allow("hot", ""), refQ.Allow(now, 1); got != want {
			t.Fatalf("step %d: hot queue verdict %v, unpooled limiter says %v", i, got, want)
		}
		if got, want := th.allow("", "hot"), refP.Allow(now, 1); got != want {
			t.Fatalf("step %d: hot partition verdict %v, unpooled limiter says %v", i, got, want)
		}
	}
	// 30 s of traffic: everything idle for a horizon is gone, so what is
	// left is the hot name plus at most two horizons' worth of cold ones.
	bound := 1 + 2*int(th.queues.Horizon()/(3*time.Millisecond))
	if n := th.queues.Len(); n > bound {
		t.Errorf("queue limiters = %d after 10000 names, want <= %d", n, bound)
	}
	if n := th.parts.Len(); n > bound {
		t.Errorf("partition limiters = %d after 10000 names, want <= %d", n, bound)
	}
}

// The throttler reads the server's clock: under a manual clock a drained
// queue bucket stays drained until the clock moves, and a second of it
// refills the bucket.
func TestThrottlerRefillsOnTheServerClock(t *testing.T) {
	clock := &vclock.Manual{}
	srv := NewServer(Options{Clock: clock, Throttle: true, QueueOpsPerSec: 5})
	if err := srv.Queue.CreateQueue("q-1"); err != nil {
		t.Fatal(err)
	}
	get := func() int {
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, httptest.NewRequest("GET", "/queue/q-1", nil))
		return w.Code
	}
	for i, want := range []int{200, 503, 503} { // the burst is 1.5 requests
		if got := get(); got != want {
			t.Fatalf("request %d: status %d, want %d", i, got, want)
		}
	}
	clock.Advance(time.Second)
	if got := get(); got != http.StatusOK {
		t.Fatalf("after a second on the server clock: status %d, want 200", got)
	}
}

// TestQueueQueryParametersValidated: numofmessages outside 1–32, and
// numofmessages, visibilitytimeout or messagettl that is not a number, are
// refused with 400 OutOfRangeQueryParameterValue instead of being clamped
// or defaulted.
func TestQueueQueryParametersValidated(t *testing.T) {
	srv := NewServer(Options{})
	if err := srv.Queue.CreateQueue("q-1"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := srv.Queue.Put("q-1", payload.String("m"), 0); err != nil {
			t.Fatal(err)
		}
	}
	for _, query := range []string{
		"numofmessages=1000000",
		"numofmessages=0",
		"numofmessages=abc",
		"numofmessages=33&peekonly=true",
		"numofmessages=abc&peekonly=true",
		"visibilitytimeout=soon",
	} {
		resp := doReq(t, srv, http.MethodGet, "/queue/q-1/messages?"+query, nil, "")
		if resp.StatusCode != 400 || resp.Header.Get("x-ms-error-code") != "OutOfRangeQueryParameterValue" {
			t.Errorf("GET ?%s: status %d, code %q", query, resp.StatusCode, resp.Header.Get("x-ms-error-code"))
		}
	}
	resp := doReq(t, srv, http.MethodPut, "/queue/q-1/messages/q-1-msg-1?popreceipt=x&visibilitytimeout=soon", nil,
		"<QueueMessage><MessageText>bQ==</MessageText></QueueMessage>")
	if resp.StatusCode != 400 || resp.Header.Get("x-ms-error-code") != "OutOfRangeQueryParameterValue" {
		t.Errorf("PUT visibilitytimeout=soon: status %d, code %q", resp.StatusCode, resp.Header.Get("x-ms-error-code"))
	}
	resp = doReq(t, srv, http.MethodPost, "/queue/q-1/messages?messagettl=abc", nil,
		"<QueueMessage><MessageText>bQ==</MessageText></QueueMessage>")
	if resp.StatusCode != 400 || resp.Header.Get("x-ms-error-code") != "OutOfRangeQueryParameterValue" {
		t.Errorf("POST messagettl=abc: status %d, code %q", resp.StatusCode, resp.Header.Get("x-ms-error-code"))
	}
	// Nothing was hidden, or added, by the refused requests.
	if msgs, err := srv.Queue.Peek("q-1", 32); err != nil || len(msgs) != 3 {
		t.Fatalf("after refused requests: %d visible, %v", len(msgs), err)
	}
	if resp := doReq(t, srv, http.MethodGet, "/queue/q-1/messages?numofmessages=32", nil, ""); resp.StatusCode != 200 {
		t.Fatalf("numofmessages=32: status %d", resp.StatusCode)
	}
}

// TestTableTopValidated: $top that is not a number is the client's error,
// as it is for the queue's integer parameters, not "no limit".
func TestTableTopValidated(t *testing.T) {
	srv := NewServer(Options{})
	if err := srv.Table.CreateTable("people"); err != nil {
		t.Fatal(err)
	}
	resp := doReq(t, srv, http.MethodGet, "/table/people?$top=abc", nil, "")
	if resp.StatusCode != 400 || resp.Header.Get("x-ms-error-code") != "OutOfRangeQueryParameterValue" {
		t.Errorf("GET $top=abc: status %d, code %q", resp.StatusCode, resp.Header.Get("x-ms-error-code"))
	}
	if resp := doReq(t, srv, http.MethodGet, "/table/people?$top=5", nil, ""); resp.StatusCode != 200 {
		t.Errorf("GET $top=5: status %d", resp.StatusCode)
	}
}
