package rest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

	"azurebench/internal/odata"
	"azurebench/internal/payload"
	"azurebench/internal/storecommon"
	"azurebench/internal/tablestore"
	"azurebench/internal/xmlwire"
)

// Header keys go into the header maps as written, so each constant must be
// what net/http would have made of it.
func TestHeaderConstantsAreCanonical(t *testing.T) {
	for _, key := range []string{hVersion, hErrorCode, hContentType, hContentLength, hETag, hIfMatch, hLastModified,
		hRange, hMsRange, hBlobType, hLeaseID, hLeaseStatus, hSnapshot, hNextPartitionKey, hNextRowKey,
		hApproximateCount, hPopReceipt, hTimeNextVisible} {
		if want := http.CanonicalHeaderKey(key); key != want {
			t.Errorf("header constant %q is not canonical (%q)", key, want)
		}
	}
}

// The query response is the body the handler wrote before PR 21 — every
// entity through json.RawMessage and the slice through json.Encoder, null
// for an empty page — byte for byte, for pages of 0, 1 and 10 entities.
func TestQueryResponseBodyUnchanged(t *testing.T) {
	srv := NewServer(Options{})
	if err := srv.Table.CreateTable("people"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		_, err := srv.Table.Insert("people", &tablestore.Entity{PartitionKey: "p", RowKey: fmt.Sprintf("r%02d", i),
			Props: map[string]tablestore.Value{
				"Name":  tablestore.String("<O'Brien & \"co\">"),
				"Score": tablestore.Double(float64(i) / 3),
				"Big":   tablestore.Int64(int64(i) << 40),
				"Bin":   tablestore.Binary(payload.Synthetic(uint64(i), 100)),
			}})
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, n := range []int{0, 1, 10} {
		filter := "PartitionKey%20eq%20'p'"
		if n == 0 {
			filter = "PartitionKey%20eq%20'absent'"
		}
		w := serve(t, srv, "GET", "/table/people?$filter="+filter+"&$top="+strconv.Itoa(max(n, 1)), nil)
		res, err := srv.Table.Query("people", strings.ReplaceAll(filter, "%20", " "), max(n, 1), tablestore.Continuation{})
		if err != nil || len(res.Entities) != n {
			t.Fatalf("engine query: %d entities, %v; want %d", len(res.Entities), err, n)
		}
		var values []json.RawMessage
		for _, row := range res.Entities {
			raw, err := odata.EncodeEntity(row.Clone()) // the model's bytes: odata's differential tests
			if err != nil {
				t.Fatal(err)
			}
			values = append(values, raw)
		}
		var want bytes.Buffer
		json.NewEncoder(&want).Encode(map[string]any{"value": values})
		if got := w.Body.Bytes(); !bytes.Equal(got, want.Bytes()) {
			t.Errorf("page of %d:\n got %s\nwant %s", n, got, want.Bytes())
		}
		if got, want := w.Header().Get("Content-Length"), strconv.Itoa(want.Len()); got != want {
			t.Errorf("page of %d: Content-Length %q, want %s", n, got, want)
		}
	}
}

// Every response with a body declares its length and its type: nothing
// goes out chunked, and net/http sniffs nothing.
func TestResponsesDeclareLengthAndType(t *testing.T) {
	srv := NewServer(Options{})
	srv.Blob.CreateContainer("ctn")
	srv.Blob.UploadBlockBlob("ctn", "b.bin", payload.Synthetic(1, 5000), "")
	srv.Queue.CreateQueue("q-1")
	srv.Queue.Put("q-1", payload.String("m"), 0)
	srv.Table.CreateTable("people")
	srv.Table.Insert("people", &tablestore.Entity{PartitionKey: "p", RowKey: "r"})
	hs := httptest.NewServer(srv)
	defer hs.Close()
	for path, wantType := range map[string]string{
		"/healthz":                          "text/plain; charset=utf-8",
		"/metricsz":                         "text/plain; version=0.0.4; charset=utf-8",
		"/stats":                            "application/xml",
		"/blob/?comp=list":                  "application/xml",
		"/blob/ctn?comp=list":               "application/xml",
		"/blob/ctn/b.bin":                   "application/octet-stream",
		"/blob/ctn/b.bin?comp=blocklist":    "application/xml",
		"/blob/absent/b.bin":                "application/xml", // an error body
		"/queue/":                           "application/xml",
		"/queue/q-1/messages?peekonly=true": "application/xml",
		"/table/Tables":                     "application/json",
		"/table/people":                     "application/json",
		"/table/people(PartitionKey='p',RowKey='r')": "application/json",
	} {
		resp, err := hs.Client().Get(hs.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.ContentLength != int64(len(body)) || len(resp.TransferEncoding) != 0 || len(body) == 0 {
			t.Errorf("GET %s: Content-Length %d, Transfer-Encoding %v, body of %d bytes", path, resp.ContentLength, resp.TransferEncoding, len(body))
		}
		if got := resp.Header.Get("Content-Type"); got != wantType {
			t.Errorf("GET %s: Content-Type %q, want %q", path, got, wantType)
		}
	}
	// A ranged download, the one body-bearing status other than 200.
	req, _ := http.NewRequest("GET", hs.URL+"/blob/ctn/b.bin", nil)
	req.Header.Set("x-ms-range", "bytes=10-109")
	resp, err := hs.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusPartialContent || resp.ContentLength != 100 {
		t.Errorf("ranged GET: status %d, Content-Length %d", resp.StatusCode, resp.ContentLength)
	}
}

// A body arrives whole whether its length is declared or not, and one cut
// short of its declared length is the client's error.
func TestRequestBodiesOfEveryFraming(t *testing.T) {
	srv := NewServer(Options{})
	srv.Blob.CreateContainer("ctn")
	data := payload.Synthetic(9, 200_000).Materialize()
	put := func(contentLength int64, body io.Reader) int {
		r := httptest.NewRequest("PUT", "/blob/ctn/b.bin", body)
		r.ContentLength = contentLength
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, r)
		return w.Code
	}
	for _, declared := range []int64{int64(len(data)), -1} {
		if code := put(declared, bytes.NewReader(data)); code != http.StatusCreated {
			t.Fatalf("upload with Content-Length %d: status %d", declared, code)
		}
		got, _, err := srv.Blob.Download("ctn", "b.bin")
		if err != nil || !bytes.Equal(got.Materialize(), data) {
			t.Fatalf("upload with Content-Length %d: stored blob differs (%v)", declared, err)
		}
	}
	if code := put(int64(len(data))+1, bytes.NewReader(data)); code != http.StatusBadRequest {
		t.Errorf("upload cut short of its Content-Length: status %d, want 400", code)
	}
}

// A body longer than its service reads is answered 413 RequestBodyTooLarge
// — unread, when its length is declared — and is never handed to a parser
// cut at the limit, which made a 200 KiB message "bad XML: unexpected EOF"
// and an oversized entity a JSON syntax error.
func TestOversizedBodiesAreRefused(t *testing.T) {
	srv := NewServer(Options{})
	srv.Queue.CreateQueue("q-1")
	srv.Table.CreateTable("people")
	srv.Blob.CreateContainer("ctn")
	message := xmlwire.AppendQueueMessage(nil, make([]byte, 150<<10))
	entity := []byte(`{"PartitionKey":"p","RowKey":"r","V":"` + strings.Repeat("x", 2*storecommon.MaxEntitySize) + `"}`)
	for _, c := range []struct {
		method, target string
		length         int64     // declared; -1 is chunked
		body           io.Reader // nil: must not be read
	}{
		{"POST", "/queue/q-1/messages", int64(len(message)), nil},
		{"POST", "/queue/q-1/messages", -1, bytes.NewReader(message)},
		{"POST", "/table/people", int64(len(entity)), nil},
		{"POST", "/table/people", -1, bytes.NewReader(entity)},
		{"PUT", "/blob/ctn/b.bin?comp=blocklist", maxBodyBytes + 1, nil},
	} {
		body := c.body
		if body == nil {
			body = readerFunc(func([]byte) (int, error) {
				t.Errorf("%s %s: a body declared too long was read", c.method, c.target)
				return 0, io.ErrUnexpectedEOF
			})
		}
		r := httptest.NewRequest(c.method, c.target, body)
		r.ContentLength = c.length
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, r)
		if code := w.Header().Get("x-ms-error-code"); w.Code != http.StatusRequestEntityTooLarge || code != "RequestBodyTooLarge" {
			t.Errorf("%s %s with Content-Length %d: status %d %s, want 413 RequestBodyTooLarge: %s",
				c.method, c.target, c.length, w.Code, code, w.Body)
		}
	}
	// At the limit a body is still read whole: the largest message the
	// engine takes, 48 KiB of it, goes in.
	serve(t, srv, "POST", "/queue/q-1/messages", xmlwire.AppendQueueMessage(nil, make([]byte, 48<<10)))
}

type readerFunc func([]byte) (int, error)

func (f readerFunc) Read(p []byte) (int, error) { return f(p) }

// A peeked message has neither a pop receipt nor a time at which it becomes
// visible again, on the wire as in the engine; a claimed one has both.
func TestPeekedMessagesCarryNoNextVisibleTime(t *testing.T) {
	srv := NewServer(Options{})
	srv.Queue.CreateQueue("q-1")
	srv.Queue.Put("q-1", payload.String("m"), 0)
	peeked := serve(t, srv, "GET", "/queue/q-1/messages?peekonly=true", nil).Body.String()
	claimed := serve(t, srv, "GET", "/queue/q-1/messages", nil).Body.String()
	for _, tag := range []string{"<PopReceipt>", "<TimeNextVisible>"} {
		if strings.Contains(peeked, tag) || !strings.Contains(claimed, tag) {
			t.Errorf("%s: in the peeked message %v, in the claimed one %v\npeeked: %s\nclaimed: %s",
				tag, strings.Contains(peeked, tag), strings.Contains(claimed, tag), peeked, claimed)
		}
	}
	for _, tag := range []string{"<MessageId>q-1-msg-1</MessageId>", "<InsertionTime>", "<ExpirationTime>", "<DequeueCount>0</DequeueCount>", "<MessageText>bQ==</MessageText>"} {
		if !strings.Contains(peeked, tag) {
			t.Errorf("peeked message lacks %s: %s", tag, peeked)
		}
	}
}

// The stats table's slots are locked one by one and the scratch buffers
// are shared through a pool: hammer both from eight goroutines while the
// two readers of the table run (go test -race, make race-live).
func TestConcurrentRequestsAndMetricsReaders(t *testing.T) {
	srv := NewServer(Options{})
	srv.Blob.CreateContainer("ctn")
	srv.Queue.CreateQueue("q-1")
	srv.Table.CreateTable("people")
	const workers, rounds = 8, 200
	message := []byte("<QueueMessage><MessageText>aGk=</MessageText></QueueMessage>")
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			key := fmt.Sprintf("/table/people(PartitionKey='p',RowKey='r%d')", g)
			blob := fmt.Sprintf("/blob/ctn/b%d", g)
			value := payload.Synthetic(uint64(g), 2000).Materialize()
			entity, _ := odata.EncodeEntity(&tablestore.Entity{PartitionKey: "p", RowKey: fmt.Sprintf("r%d", g),
				Props: map[string]tablestore.Value{"V": tablestore.Binary(payload.Bytes(value))}})
			for i := 0; i < rounds; i++ {
				serve(t, srv, "PUT", key, entity)
				if w := serve(t, srv, "GET", key, nil); !bytes.Equal(w.Body.Bytes()[:20], entity[:20]) {
					t.Errorf("worker %d read another worker's bytes: %s", g, w.Body.Bytes()[:40])
				}
				serve(t, srv, "GET", "/table/people?$top=3", nil)
				serve(t, srv, "PUT", blob, value)
				if w := serve(t, srv, "GET", blob, nil); !bytes.Equal(w.Body.Bytes(), value) {
					t.Errorf("worker %d downloaded another worker's blob", g)
				}
				serve(t, srv, "POST", "/queue/q-1/messages", message)
				srv.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("BREW", "/pot", nil))
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < rounds; i++ {
			for j, es := range srv.MetricsSnapshot() {
				if es.Count < es.Errors || es.Latency.Count() != es.Count {
					t.Errorf("torn snapshot entry %d: %+v", j, es)
				}
			}
			serve(t, srv, "GET", "/metricsz", nil)
		}
	}()
	wg.Wait()
	<-done
	want := map[string]uint64{
		"PUT /table": workers * rounds, "GET /table": 2 * workers * rounds, "PUT /blob": workers * rounds,
		"GET /blob": workers * rounds, "POST /queue": workers * rounds, otherEndpoint: workers * rounds,
		"GET /metricsz": rounds,
	}
	snap := srv.MetricsSnapshot()
	if len(snap) != len(want) {
		t.Errorf("%d endpoints in the snapshot, want %d: %+v", len(snap), len(want), snap)
	}
	for _, es := range snap {
		if es.Count != want[es.Endpoint] {
			t.Errorf("%s counted %d requests, want %d", es.Endpoint, es.Count, want[es.Endpoint])
		}
	}
}
