package rest

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"azurebench/internal/payload"
	"azurebench/internal/tablestore"
)

// routeCase is one request and the answer it gets from a seeded server:
// the status and the x-ms-error-code ("" for none).
type routeCase struct {
	method, path, query, headers, body string
	status                             int
	code                               string
}

const (
	routeEntity  = `{"PartitionKey":"p","RowKey":"r","N":1}`
	routeMessage = `<QueueMessage><MessageText>aGk=</MessageText></QueueMessage>`
)

// routeCases are FuzzServeHTTP's seeds, each pinned to its answer. The
// last rows probe the router itself: a path outside the services is a
// ResourceNotFound, a service named without its trailing slash is the
// service, an unclean path goes to its service as sent, and a blob name
// ending in a slash reaches the engine, which refuses it.
var routeCases = []routeCase{
	{"GET", "/healthz", "", "", "", 200, ""},
	{"GET", "/metricsz", "", "", "", 200, ""},
	{"GET", "/stats", "", "", "", 200, ""},
	{"GET", "/", "", "", "", 404, "ResourceNotFound"},
	{"PUT", "/blob/ctn", "", "", "", 409, "ContainerAlreadyExists"},
	{"GET", "/blob/", "comp=list&prefix=c", "", "", 200, ""},
	{"GET", "/blob/ctn", "comp=list", "", "", 200, ""},
	{"PUT", "/blob/ctn/b.bin", "", "x-ms-blob-type:BlockBlob", "hello", 201, ""},
	{"PUT", "/blob/ctn/b.bin", "comp=block&blockid=YQ==", "", "hello", 201, ""},
	{"PUT", "/blob/ctn/b.bin", "comp=blocklist", "", "<BlockList><Latest>YQ==</Latest></BlockList>", 400, "InvalidBlockList"},
	{"GET", "/blob/ctn/b.bin", "comp=blocklist", "", "", 404, "BlobNotFound"},
	{"PUT", "/blob/ctn/p.bin", "", "x-ms-blob-type:PageBlob\nx-ms-blob-content-length:1024", "", 201, ""},
	{"PUT", "/blob/ctn/p.bin", "comp=page", "x-ms-range:bytes=0-511\nx-ms-page-write:update", strings.Repeat("x", 512), 404, "BlobNotFound"},
	{"PUT", "/blob/ctn/p.bin", "comp=page", "x-ms-range:bytes=0-511\nx-ms-page-write:clear", "", 404, "BlobNotFound"},
	{"GET", "/blob/ctn/p.bin", "comp=pagelist", "", "", 404, "BlobNotFound"},
	{"GET", "/blob/ctn/seeded.bin", "", "", "", 200, ""},
	{"GET", "/blob/ctn/seeded.bin", "", "Range:bytes=1-3", "", 206, ""},
	{"GET", "/blob/ctn/seeded.bin", "snapshot=2012-01-01T00:00:00Z", "", "", 404, "SnapshotNotFound"},
	{"HEAD", "/blob/ctn/seeded.bin", "", "", "", 200, ""},
	{"PUT", "/blob/ctn/seeded.bin", "comp=snapshot", "", "", 201, ""},
	{"PUT", "/blob/ctn/seeded.bin", "comp=lease", "x-ms-lease-action:acquire\nx-ms-lease-duration:15", "", 201, ""},
	{"PUT", "/blob/ctn/seeded.bin", "comp=lease", "x-ms-lease-action:break", "", 409, "LeaseNotPresentWithLeaseOperation"},
	{"DELETE", "/blob/ctn/seeded.bin", "", "x-ms-lease-id:nope", "", 412, "LeaseNotPresentWithLeaseOperation"},
	{"DELETE", "/blob/ctn", "", "", "", 202, ""},
	{"GET", "/queue/", "prefix=q", "", "", 200, ""},
	{"PUT", "/queue/q-2", "", "", "", 201, ""},
	{"GET", "/queue/q-1", "", "", "", 200, ""},
	{"POST", "/queue/q-1/messages", "messagettl=60", "", routeMessage, 201, ""},
	{"GET", "/queue/q-1/messages", "numofmessages=2&visibilitytimeout=1", "", "", 200, ""},
	{"GET", "/queue/q-1/messages", "peekonly=true", "", "", 200, ""},
	{"PUT", "/queue/q-1/messages/q-1-msg-1", "popreceipt=x&visibilitytimeout=5", "", routeMessage, 400, "PopReceiptMismatch"},
	{"DELETE", "/queue/q-1/messages/q-1-msg-1", "popreceipt=x", "", "", 400, "PopReceiptMismatch"},
	{"DELETE", "/queue/q-1/x", "", "", "", 405, "UnsupportedHttpVerb"},
	{"DELETE", "/queue/q-1/messages", "", "", "", 204, ""},
	{"DELETE", "/queue/q-1", "", "", "", 204, ""},
	{"POST", "/table/Tables", "", "", `{"TableName":"other"}`, 201, ""},
	{"GET", "/table/Tables", "", "", "", 200, ""},
	{"DELETE", "/table/Tables('tbl')", "", "", "", 204, ""},
	{"POST", "/table/tbl", "", "", routeEntity, 201, ""},
	{"GET", "/table/tbl", "$top=2&$filter=PartitionKey%20eq%20'p'", "", "", 200, ""},
	{"GET", "/table/tbl", "", "x-ms-continuation-NextPartitionKey:p\nx-ms-continuation-NextRowKey:r", "", 200, ""},
	{"GET", "/table/tbl(PartitionKey='p',RowKey='seeded')", "", "", "", 200, ""},
	{"PUT", "/table/tbl(PartitionKey='p',RowKey='seeded')", "", "If-Match:*", routeEntity, 204, ""},
	{"MERGE", "/table/tbl(PartitionKey='o''brien',RowKey='r')", "", "", routeEntity, 204, ""},
	{"DELETE", "/table/tbl(PartitionKey='p',RowKey='seeded')", "", "If-Match:*", "", 204, ""},
	{"GET", "/table/tbl(PartitionKey='p')", "", "", "", 404, "EntityNotFound"},
	{"GET", "/table/tbl()", "", "", "", 200, ""},
	{"GET", "/table/tbl(=,)", "", "", "", 200, ""},
	{"GET", "/table/", "", "", "", 400, "InvalidInput"},
	{"GET", "/table//x", "", "", "", 400, "InvalidInput"},
	{"GET", "/blob/../queue/q-1", "", "", "", 404, "ContainerNotFound"},
	{"CONNECT", "/blob/ctn", "", "", "", 405, "UnsupportedHttpVerb"},
	{"M7", "/junk7/x", "", "", "", 404, "ResourceNotFound"},
	{"0", "*", "", "", "", 400, "InvalidUri"},
	{"GET", "/blob", "", "", "", 200, ""},
	{"GET", "/healthz/", "", "", "", 404, "ResourceNotFound"},
	{"GET", "/blob//ctn/seeded.bin", "", "", "", 404, "ContainerNotFound"},
	{"PUT", "/blob/ctn/logs/", "", "", "x", 400, "InvalidResourceName"},
}

// seededServer holds one of everything, so that well-formed requests
// reach the engines.
func seededServer(t testing.TB) *Server {
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
	return srv
}

// rawRequest is the request as net/http would hand it over: the path as
// sent, header keys canonical, the body behind its declared length —
// which framing makes right (0), absent, as chunked (1), or a lie (2).
func rawRequest(method, path, query, headers string, body []byte, framing uint8) *http.Request {
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
	return r
}

// TestRouteAnswers pins every seed request's status and error code, each
// against a freshly seeded server.
func TestRouteAnswers(t *testing.T) {
	for _, c := range routeCases {
		w := httptest.NewRecorder()
		seededServer(t).ServeHTTP(w, rawRequest(c.method, c.path, c.query, c.headers, []byte(c.body), 0))
		if code := w.Header().Get("x-ms-error-code"); w.Code != c.status || code != c.code {
			t.Errorf("%s %s?%s: %d %q, want %d %q", c.method, c.path, c.query, w.Code, code, c.status, c.code)
		}
	}
}
