package rest

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"strings"
	"testing"

	"azurebench/internal/payload"
	"azurebench/internal/tablestore"
)

// servedStatuses are the status codes the emulator can answer with: the
// successes its handlers write, the statuses of the storecommon error
// table, and ServeMux's own redirect for a path it had to clean.
var servedStatuses = []int{200, 201, 202, 204, 206, 301, 400, 404, 405, 409, 410, 412, 413, 416, 500, 503}

// FuzzServeHTTP drives the emulator's request parsing — method, path,
// query, headers, body framing — with arbitrary bytes, against a server
// that holds one of everything so that well-formed prefixes reach the
// engines. Whatever arrives, the server must not panic, must answer with a
// status it is known to produce and with x-ms-version, and must not grow
// its stats table (TestEndpointStatsBoundedUnderJunkRequests's property).
func FuzzServeHTTP(f *testing.F) {
	const entity = `{"PartitionKey":"p","RowKey":"r","N":1}`
	const message = `<QueueMessage><MessageText>aGk=</MessageText></QueueMessage>`
	for _, seed := range []struct{ method, path, query, headers, body string }{
		{"GET", "/healthz", "", "", ""},
		{"GET", "/metricsz", "", "", ""},
		{"GET", "/stats", "", "", ""},
		{"GET", "/", "", "", ""},
		{"PUT", "/blob/ctn", "", "", ""},
		{"GET", "/blob/", "comp=list&prefix=c", "", ""},
		{"GET", "/blob/ctn", "comp=list", "", ""},
		{"PUT", "/blob/ctn/b.bin", "", "x-ms-blob-type:BlockBlob", "hello"},
		{"PUT", "/blob/ctn/b.bin", "comp=block&blockid=YQ==", "", "hello"},
		{"PUT", "/blob/ctn/b.bin", "comp=blocklist", "", "<BlockList><Latest>YQ==</Latest></BlockList>"},
		{"GET", "/blob/ctn/b.bin", "comp=blocklist", "", ""},
		{"PUT", "/blob/ctn/p.bin", "", "x-ms-blob-type:PageBlob\nx-ms-blob-content-length:1024", ""},
		{"PUT", "/blob/ctn/p.bin", "comp=page", "x-ms-range:bytes=0-511\nx-ms-page-write:update", strings.Repeat("x", 512)},
		{"PUT", "/blob/ctn/p.bin", "comp=page", "x-ms-range:bytes=0-511\nx-ms-page-write:clear", ""},
		{"GET", "/blob/ctn/p.bin", "comp=pagelist", "", ""},
		{"GET", "/blob/ctn/seeded.bin", "", "", ""},
		{"GET", "/blob/ctn/seeded.bin", "", "Range:bytes=1-3", ""},
		{"GET", "/blob/ctn/seeded.bin", "snapshot=2012-01-01T00:00:00Z", "", ""},
		{"HEAD", "/blob/ctn/seeded.bin", "", "", ""},
		{"PUT", "/blob/ctn/seeded.bin", "comp=snapshot", "", ""},
		{"PUT", "/blob/ctn/seeded.bin", "comp=lease", "x-ms-lease-action:acquire\nx-ms-lease-duration:15", ""},
		{"PUT", "/blob/ctn/seeded.bin", "comp=lease", "x-ms-lease-action:break", ""},
		{"DELETE", "/blob/ctn/seeded.bin", "", "x-ms-lease-id:nope", ""},
		{"DELETE", "/blob/ctn", "", "", ""},
		{"GET", "/queue/", "prefix=q", "", ""},
		{"PUT", "/queue/q-2", "", "", ""},
		{"GET", "/queue/q-1", "", "", ""},
		{"POST", "/queue/q-1/messages", "messagettl=60", "", message},
		{"GET", "/queue/q-1/messages", "numofmessages=2&visibilitytimeout=1", "", ""},
		{"GET", "/queue/q-1/messages", "peekonly=true", "", ""},
		{"PUT", "/queue/q-1/messages/q-1-msg-1", "popreceipt=x&visibilitytimeout=5", "", message},
		{"DELETE", "/queue/q-1/messages/q-1-msg-1", "popreceipt=x", "", ""},
		{"DELETE", "/queue/q-1/x", "", "", ""},
		{"DELETE", "/queue/q-1/messages", "", "", ""},
		{"DELETE", "/queue/q-1", "", "", ""},
		{"POST", "/table/Tables", "", "", `{"TableName":"other"}`},
		{"GET", "/table/Tables", "", "", ""},
		{"DELETE", "/table/Tables('tbl')", "", "", ""},
		{"POST", "/table/tbl", "", "", entity},
		{"GET", "/table/tbl", "$top=2&$filter=PartitionKey%20eq%20'p'", "", ""},
		{"GET", "/table/tbl", "", "x-ms-continuation-NextPartitionKey:p\nx-ms-continuation-NextRowKey:r", ""},
		{"GET", "/table/tbl(PartitionKey='p',RowKey='seeded')", "", "", ""},
		{"PUT", "/table/tbl(PartitionKey='p',RowKey='seeded')", "", "If-Match:*", entity},
		{"MERGE", "/table/tbl(PartitionKey='o''brien',RowKey='r')", "", "", entity},
		{"DELETE", "/table/tbl(PartitionKey='p',RowKey='seeded')", "", "If-Match:*", ""},
		{"GET", "/table/tbl(PartitionKey='p')", "", "", ""},
		{"GET", "/table/tbl()", "", "", ""},
		{"GET", "/table/tbl(=,)", "", "", ""},
		{"GET", "/table/", "", "", ""},
		{"GET", "/table//x", "", "", ""},
		{"GET", "/blob/../queue/q-1", "", "", ""},
		{"CONNECT", "/blob/ctn", "", "", ""},
		{"M7", "/junk7/x", "", "", ""},
		{"0", "*", "", "", ""},
	} {
		f.Add(seed.method, seed.path, seed.query, seed.headers, []byte(seed.body), uint8(0))
	}

	f.Fuzz(func(t *testing.T, method, path, query, headers string, body []byte, framing uint8) {
		srv := NewServer(Options{})
		must := func(err error) {
			if err != nil {
				t.Fatal(err)
			}
		}
		must(srv.Blob.CreateContainer("ctn"))
		_, err := srv.Blob.UploadBlockBlob("ctn", "seeded.bin", payload.String("seeded"), "")
		must(err)
		must(srv.Queue.CreateQueue("q-1"))
		_, err = srv.Queue.Put("q-1", payload.String("seeded"), 0)
		must(err)
		must(srv.Table.CreateTable("tbl"))
		_, err = srv.Table.Insert("tbl", &tablestore.Entity{PartitionKey: "p", RowKey: "seeded",
			Props: map[string]tablestore.Value{"N": tablestore.Int32(1)}})
		must(err)

		// The request as net/http would hand it over: header keys
		// canonical, the body behind its declared length — which may be
		// right, absent (chunked) or a lie.
		r := &http.Request{
			Method: method, URL: &url.URL{Path: path, RawQuery: query}, RequestURI: path,
			Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1, Host: "x",
			Header: http.Header{}, Body: io.NopCloser(bytes.NewReader(body)),
		}
		for _, line := range strings.Split(headers, "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok {
				r.Header.Set(k, v)
			}
		}
		switch framing % 3 {
		case 0:
			r.ContentLength = int64(len(body))
		case 1:
			r.ContentLength = -1
		case 2:
			r.ContentLength = int64(len(body)) + 7
		}
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, r)

		if !slices.Contains(servedStatuses, w.Code) {
			t.Errorf("%s %q?%q answered %d, which no handler or error code produces", method, path, query, w.Code)
		}
		if got := w.Header().Get("x-ms-version"); got != "2011-08-18" {
			t.Errorf("%s %q: x-ms-version = %q", method, path, got)
		}
		if w.Code >= 400 && w.Code != 404 && w.Header().Get("x-ms-error-code") == "" {
			t.Errorf("%s %q: status %d without x-ms-error-code", method, path, w.Code)
		}
		snap := srv.MetricsSnapshot()
		if len(snap) != 1 || snap[0].Count != 1 || !slices.Contains(endpointNames[:], snap[0].Endpoint) {
			t.Errorf("%s %q: stats after one request = %+v", method, path, snap)
		}
	})
}
