package sdk

import (
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"
	"time"

	"azurebench/internal/rest"
	"azurebench/internal/retry"
	"azurebench/internal/tablestore"
	"azurebench/internal/vclock"
)

// The wire carries whole seconds. A sub-second visibility timeout or TTL
// must round up to one second, not down to 0 — the service's "use the
// default" (30 s of invisibility, a week to live) — so that the live door
// agrees with the sim door, which passes the Duration through untouched.
func TestSubSecondDurationsRoundUpOnTheWire(t *testing.T) {
	clock := &vclock.Manual{}
	srv := rest.NewServer(rest.Options{Clock: clock})
	hs := httptest.NewServer(srv)
	defer hs.Close()
	q := New(hs.URL, hs.Client(), retry.Policy{}).Queue()
	if err := q.Create("q-1"); err != nil {
		t.Fatal(err)
	}
	if err := q.Put("q-1", []byte("task"), 0); err != nil {
		t.Fatal(err)
	}
	claimed, err := q.Get("q-1", 1, 300*time.Millisecond)
	if err != nil || len(claimed) != 1 {
		t.Fatalf("claim = %v, %v", claimed, err)
	}
	if got := claimed[0].NextVisible.Sub(clock.Now()); got != time.Second {
		t.Errorf("claimed with 300ms visibility: next visible in %v, want 1s", got)
	}
	clock.Advance(1100 * time.Millisecond)
	again, err := q.Get("q-1", 1, 300*time.Millisecond)
	if err != nil || len(again) != 1 {
		t.Fatalf("re-claim 1.1s after a 300ms claim = %d messages, %v; want the message back", len(again), err)
	}
	// Update takes the same rounding.
	if _, err := q.Update("q-1", again[0].ID, again[0].PopReceipt, []byte("task"), 300*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	clock.Advance(1100 * time.Millisecond)
	if msgs, err := q.Get("q-1", 1, time.Second); err != nil || len(msgs) != 1 {
		t.Fatalf("re-claim 1.1s after a 300ms update = %d messages, %v; want the message back", len(msgs), err)
	}
	// A 500ms TTL is one second to live, not a week.
	if err := q.Put("q-1", []byte("short-lived"), 500*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	clock.Advance(2 * time.Second)
	msgs, err := q.Peek("q-1", 32)
	if err != nil || len(msgs) != 1 || string(msgs[0].Body) != "task" {
		t.Fatalf("2s after a 500ms-TTL put the queue shows %d messages (%v); want only the first task", len(msgs), err)
	}
	for d, want := range map[time.Duration]string{
		0: "0", time.Nanosecond: "1", 300 * time.Millisecond: "1", time.Second: "1",
		time.Second + 1: "2", 90 * time.Second: "90",
	} {
		if got := wireSeconds(d); got != want {
			t.Errorf("wireSeconds(%v) = %s, want %s", d, got, want)
		}
	}
}

// Header keys go into the header maps as written, so each constant must be
// what net/http would have made of it.
func TestHeaderConstantsAreCanonical(t *testing.T) {
	for _, key := range []string{hETag, hIfMatch, hContentLength, hLastModified, hErrorCode, hMsRange, hPageWrite,
		hBlobType, hBlobContentLength, hSnapshot, hLeaseAction, hLeaseDuration, hLeaseID, hLeaseStatus,
		hNextPartitionKey, hNextRowKey, hApproximateCount, hPopReceipt, hTraceparent, hBenchOp} {
		if want := http.CanonicalHeaderKey(key); key != want {
			t.Errorf("header constant %q is not canonical (%q)", key, want)
		}
	}
}

func TestAppendEscMatchesPathEscape(t *testing.T) {
	var all []byte
	for b := 0; b < 256; b++ {
		all = append(all, byte(b))
	}
	for _, s := range []string{"", "plain", "with space/slash?and#hash", "o'brien", "café", string(all)} {
		if got, want := string(appendEsc(nil, s, false)), url.PathEscape(s); got != want {
			t.Errorf("appendEsc(%q) = %q, PathEscape gives %q", s, got, want)
		}
	}
	if got, want := entityPath("t b", "o'brien", "r/1"), "/table/t%20b(PartitionKey='o%27%27brien',RowKey='r%2F1')"; got != want {
		t.Errorf("entityPath = %q, want %q", got, want)
	}
}

// The request the SDK assembles by hand must reach the server as the one
// http.NewRequest built from the formatted URL did: escaped bytes kept as
// written in the request line, decoded once in URL.Path, under a base URL
// with a path of its own.
func TestRequestLineKeepsEscapedPath(t *testing.T) {
	var gotURI, gotPath, gotQuery, gotIfMatch string
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gotURI, gotPath, gotQuery, gotIfMatch = r.RequestURI, r.URL.Path, r.URL.RawQuery, r.Header.Get("If-Match")
		w.WriteHeader(http.StatusNoContent)
	}))
	defer hs.Close()
	c := New(hs.URL+"/dev%20store/", hs.Client(), retry.Policy{})
	if err := c.Table().DeleteEntity("people", "o'brien & co", "50%", "*"); err != nil {
		t.Fatal(err)
	}
	if want := "/dev%20store/table/people(PartitionKey='o%27%27brien%20&%20co',RowKey='50%25')"; gotURI != want {
		t.Errorf("request line carried %q, want %q", gotURI, want)
	}
	if want := "/dev store/table/people(PartitionKey='o''brien & co',RowKey='50%')"; gotPath != want {
		t.Errorf("server decoded the path as %q, want %q", gotPath, want)
	}
	if gotQuery != "" || gotIfMatch != "*" {
		t.Errorf("query %q, If-Match %q", gotQuery, gotIfMatch)
	}
	if err := New("http://bad host/", nil, retry.Policy{}).Table().Create("people"); err == nil {
		t.Error("a base URL that does not parse must fail every request")
	}
}

// The query the SDK writes by hand is the one url.Values.Encode built from
// a map before: keys sorted, keys and values query-escaped ("$" too), no
// "?" without parameters.
func TestRequestLineKeepsEncodedQuery(t *testing.T) {
	var got []string
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		got = append(got, r.Method+" "+r.RequestURI)
		w.WriteHeader(http.StatusNotFound) // every call fails after its one request
	}))
	defer hs.Close()
	c := New(hs.URL, hs.Client(), retry.Policy{})
	q, b, tb := c.Queue(), c.Blob(), c.Table()
	at := time.Date(2012, 5, 21, 1, 2, 3, 456, time.UTC)
	const odd = "a b&c=d/é+'$"
	var want []string
	expect := func(method, path string, vals url.Values) {
		if len(vals) > 0 {
			path += "?" + vals.Encode()
		}
		want = append(want, method+" "+path)
	}

	q.Put("q-1", []byte("m"), 0)
	expect("POST", "/queue/q-1/messages", nil)
	q.Put("q-1", []byte("m"), 1500*time.Millisecond)
	expect("POST", "/queue/q-1/messages", url.Values{"messagettl": {"2"}})
	q.Get("q-1", 1, 0)
	expect("GET", "/queue/q-1/messages", url.Values{"numofmessages": {"1"}})
	q.Get("q-1", 32, time.Minute)
	expect("GET", "/queue/q-1/messages", url.Values{"numofmessages": {"32"}, "visibilitytimeout": {"60"}})
	q.Peek("q-1", 7)
	expect("GET", "/queue/q-1/messages", url.Values{"numofmessages": {"7"}, "peekonly": {"true"}})
	q.DeleteMessage("q-1", "q-1-msg-1", odd)
	expect("DELETE", "/queue/q-1/messages/q-1-msg-1", url.Values{"popreceipt": {odd}})
	q.Update("q-1", "q-1-msg-1", odd, []byte("m"), 0)
	expect("PUT", "/queue/q-1/messages/q-1-msg-1", url.Values{"popreceipt": {odd}, "visibilitytimeout": {"0"}})
	q.List("")
	expect("GET", "/queue/", nil)
	q.List(odd)
	expect("GET", "/queue/", url.Values{"prefix": {odd}})

	b.ListContainers("")
	expect("GET", "/blob/", url.Values{"comp": {"list"}})
	b.ListBlobs("ctn", odd)
	expect("GET", "/blob/ctn", url.Values{"comp": {"list"}, "prefix": {odd}})
	b.PutBlock("ctn", "b", "YQ==", []byte("x"))
	expect("PUT", "/blob/ctn/b", url.Values{"comp": {"block"}, "blockid": {"YQ=="}})
	b.PutBlockList("ctn", "b", []string{"YQ=="})
	expect("PUT", "/blob/ctn/b", url.Values{"comp": {"blocklist"}})
	b.DownloadSnapshot("ctn", "b", at)
	expect("GET", "/blob/ctn/b", url.Values{"snapshot": {"2012-05-21T01:02:03.000000456Z"}})

	tb.Query("people", "", 0, tablestore.Continuation{})
	expect("GET", "/table/people", nil)
	tb.Query("people", "PartitionKey eq 'p' and N gt 1", 0, tablestore.Continuation{})
	expect("GET", "/table/people", url.Values{"$filter": {"PartitionKey eq 'p' and N gt 1"}})
	tb.Query("people", "", 10, tablestore.Continuation{})
	expect("GET", "/table/people", url.Values{"$top": {"10"}})
	tb.Query("people", odd, 10, tablestore.Continuation{})
	expect("GET", "/table/people", url.Values{"$filter": {odd}, "$top": {"10"}})

	if len(got) != len(want) {
		t.Fatalf("%d requests arrived, %d expected: %q", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("request line %q, url.Values.Encode gives %q", got[i], want[i])
		}
	}
}

// A HEAD response declares the length of a body it does not carry, and a
// response without a declared length still arrives whole.
func TestResponseBodiesOfEveryFraming(t *testing.T) {
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/blob/c/declared":
			w.Header().Set("Content-Length", "5")
			if r.Method != http.MethodHead {
				w.Write([]byte("hello"))
			}
		case "/blob/c/chunked":
			w.Write([]byte("hel"))
			w.(http.Flusher).Flush()
			w.Write([]byte("lo"))
		case "/blob/c/short":
			w.Header().Set("Content-Length", "50")
			w.Write([]byte("hello"))
		}
	}))
	defer hs.Close()
	b := New(hs.URL, hs.Client(), retry.Policy{}).Blob()
	for _, name := range []string{"declared", "chunked"} {
		if got, err := b.Download("c", name); err != nil || string(got) != "hello" {
			t.Errorf("Download(%s) = %q, %v", name, got, err)
		}
	}
	if props, err := b.Props("c", "declared"); err != nil || props.Size != 5 {
		t.Errorf("Props = %+v, %v", props, err)
	}
	if _, err := b.Download("c", "short"); err == nil {
		t.Error("a response cut short of its Content-Length must be an error")
	}
}
