package rest

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"azurebench/internal/vclock"
)

func TestEndpointKey(t *testing.T) {
	for _, tc := range []struct{ method, path, want string }{
		{"PUT", "/blob/c/b", "PUT /blob"},
		{"GET", "/queue/q/messages", "GET /queue"},
		{"GET", "/healthz", "GET /healthz"},
		{"GET", "/", "GET /"},
		{"GET", "/junk7/x", "OTHER /other"},
		{"GET", "/blobby", "OTHER /other"},
		{"M7", "/blob/c/b", "OTHER /other"},
	} {
		r, _ := parseRequest(httptest.NewRequest(tc.method, "http://x"+tc.path, nil))
		if got := endpointNames[r.slot]; got != tc.want {
			t.Errorf("%s %s: stats key %q, want %q", tc.method, tc.path, got, tc.want)
		}
	}
}

func TestStatszCountsAndClassifies(t *testing.T) {
	srv := NewServer(Options{})
	hs := httptest.NewServer(srv)
	defer hs.Close()
	do := func(method, path, body string) {
		req, err := http.NewRequest(method, hs.URL+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := hs.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	do("PUT", "/blob/ctn", "")                // create container: ok
	do("PUT", "/blob/ctn/b.bin", "hello")     // upload: ok
	do("GET", "/blob/ctn/b.bin", "")          // download: ok
	do("GET", "/blob/absent/missing.bin", "") // 404: counted as error

	stats := srv.MetricsSnapshot()
	byKey := map[string]int{}
	for i, s := range stats {
		byKey[s.Endpoint] = i
		if i > 0 && stats[i-1].Endpoint >= s.Endpoint {
			t.Fatalf("endpoints not sorted: %q before %q", stats[i-1].Endpoint, s.Endpoint)
		}
	}
	put, ok := byKey["PUT /blob"]
	if !ok {
		t.Fatalf("PUT /blob missing: %+v", stats)
	}
	if stats[put].Count != 2 || stats[put].Errors != 0 {
		t.Fatalf("PUT /blob = %+v", stats[put])
	}
	if lat := stats[put].Latency; lat.Count() != 2 || lat.Total() <= 0 {
		t.Fatalf("PUT /blob latency: %d samples totalling %v", lat.Count(), lat.Total())
	}
	get, ok := byKey["GET /blob"]
	if !ok {
		t.Fatalf("GET /blob missing: %+v", stats)
	}
	if stats[get].Count != 2 || stats[get].Errors != 1 {
		t.Fatalf("GET /blob = %+v", stats[get])
	}
}

func TestStatszCountsThrottles(t *testing.T) {
	srv := NewServer(Options{Clock: &vclock.Manual{}, Throttle: true, QueueOpsPerSec: 0.001, AccountOpsPerSec: 1e6})
	hs := httptest.NewServer(srv)
	defer hs.Close()
	// Each request charges the queue scope's one-token bucket, which the
	// stopped clock never refills: the first is admitted (and answered
	// 405), the other nine throttled.
	for i := 0; i < 10; i++ {
		resp, err := hs.Client().Post(hs.URL+"/queue/q1", "application/xml", nil)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	snap := srv.MetricsSnapshot()
	if len(snap) != 1 || snap[0].Endpoint != "POST /queue" || snap[0].Count != 10 ||
		snap[0].Errors != 10 || snap[0].Throttled != 9 {
		t.Fatalf("stats = %+v, want POST /queue with 10 requests, 10 errors, 9 throttled", snap)
	}
}

// Method and path are client-supplied: requests outside the server's own
// routes and the standard methods must not each mint a stats entry (and a
// histogram, and a /metricsz label set).
func TestEndpointStatsBoundedUnderJunkRequests(t *testing.T) {
	srv := NewServer(Options{})
	for i := 0; i < 5000; i++ {
		srv.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", fmt.Sprintf("http://x/junk%d/x", i), nil))
		srv.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(fmt.Sprintf("M%d", i), "http://x/blob/ctn", nil))
	}
	snap := srv.MetricsSnapshot()
	if len(snap) > 4 {
		t.Fatalf("%d stats entries after 10 000 junk requests, want a small constant", len(snap))
	}
	for _, s := range snap {
		if s.Endpoint == otherEndpoint {
			if s.Count != 10000 {
				t.Fatalf("%s count = %d, want 10000", otherEndpoint, s.Count)
			}
			return
		}
	}
	t.Fatalf("%s missing: %+v", otherEndpoint, snap)
}

func TestMetricsSnapshotIsACopy(t *testing.T) {
	srv := NewServer(Options{})
	hs := httptest.NewServer(srv)
	defer hs.Close()
	resp, err := hs.Client().Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	snap := srv.MetricsSnapshot()
	if len(snap) == 0 {
		t.Fatal("empty snapshot")
	}
	snap[0].Latency.Observe(0) // mutating the copy must not touch the live stats
	again := srv.MetricsSnapshot()
	if again[0].Latency.Count() != snap[0].Latency.Count()-1 {
		t.Fatalf("snapshot shares state: live=%d mutated=%d",
			again[0].Latency.Count(), snap[0].Latency.Count())
	}
}

func TestServiceStatsUnavailableByDefault(t *testing.T) {
	srv := NewServer(Options{})
	hs := httptest.NewServer(srv)
	defer hs.Close()
	resp, err := hs.Client().Get(hs.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /stats = %d", resp.StatusCode)
	}
	text := string(body)
	if !strings.Contains(text, "<Status>unavailable</Status>") {
		t.Errorf("default stats body = %s, want unavailable status", text)
	}
	if strings.Contains(text, "<LastSyncTime>") && !strings.Contains(text, "<LastSyncTime></LastSyncTime>") {
		t.Errorf("unavailable account reports a LastSyncTime: %s", text)
	}
}
