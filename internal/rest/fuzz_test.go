package rest

import (
	"net/http/httptest"
	"slices"
	"testing"
)

// servedStatuses are the status codes the emulator can answer with: the
// successes its handlers write and the statuses of the storecommon error
// table.
var servedStatuses = []int{200, 201, 202, 204, 206, 400, 404, 405, 409, 410, 412, 413, 416, 500, 503}

// FuzzServeHTTP drives the emulator's request parsing — method, path,
// query, headers, body framing — with arbitrary bytes, starting from
// routeCases, against a server that holds one of everything so that
// well-formed prefixes reach the engines. Whatever arrives, the server
// must not panic, must answer with a status it is known to produce, with
// x-ms-version and, for an error, with x-ms-error-code, and must not grow
// its stats table (TestEndpointStatsBoundedUnderJunkRequests's property).
func FuzzServeHTTP(f *testing.F) {
	for _, c := range routeCases {
		f.Add(c.method, c.path, c.query, c.headers, []byte(c.body), uint8(0))
	}

	f.Fuzz(func(t *testing.T, method, path, query, headers string, body []byte, framing uint8) {
		srv := seededServer(t)
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, rawRequest(method, path, query, headers, body, framing))

		if !slices.Contains(servedStatuses, w.Code) {
			t.Errorf("%s %q?%q answered %d, which no handler or error code produces", method, path, query, w.Code)
		}
		if got := w.Header().Get("x-ms-version"); got != "2011-08-18" {
			t.Errorf("%s %q: x-ms-version = %q", method, path, got)
		}
		if w.Code >= 400 && w.Header().Get("x-ms-error-code") == "" {
			t.Errorf("%s %q: status %d without x-ms-error-code", method, path, w.Code)
		}
		snap := srv.MetricsSnapshot()
		if len(snap) != 1 || snap[0].Count != 1 || !slices.Contains(endpointNames[:], snap[0].Endpoint) {
			t.Errorf("%s %q: stats after one request = %+v", method, path, snap)
		}
	})
}
