package rest

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"azurebench/internal/odata"
	"azurebench/internal/payload"
	"azurebench/internal/tablestore"
	"azurebench/internal/xmlwire"
)

// serve runs one request through ServeHTTP and a recorder — no socket, no
// net/http server — and fails the test on an error status (with Errorf: it
// is also called off the test goroutine).
func serve(t testing.TB, srv *Server, method, target string, body []byte, header ...string) *httptest.ResponseRecorder {
	var r *http.Request
	if body != nil {
		r = httptest.NewRequest(method, target, bytes.NewReader(body))
	} else {
		r = httptest.NewRequest(method, target, nil)
	}
	for i := 0; i+1 < len(header); i += 2 {
		r.Header.Set(header[i], header[i+1])
	}
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, r)
	if w.Code >= 400 {
		t.Errorf("%s %s: status %d: %s", method, target, w.Code, w.Body)
	}
	return w
}

// Allocation ceilings of the request path, measured the way the benchmark's
// rest.allocs_per_req replay measures them: the request and the recorder
// are built inside the measured call, and 15 to 19 of the allocations
// below are theirs; of a replace, 3 more are the engine filing and
// stamping the entity, and a get takes none in the engine. Before PR 21 the table and blob requests took 61,
// 82, 55 and 41 allocations and 3.28 bytes per blob byte. A regression here fails go
// test without the benchmark being run.
func TestRequestAllocationCeilings(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	srv := NewServer(Options{})
	value := payload.Synthetic(3, 1024).Materialize()
	e := &tablestore.Entity{PartitionKey: "p07", RowKey: "user0000001234",
		Props: map[string]tablestore.Value{"Field0": tablestore.Binary(payload.Bytes(value))}}
	if err := srv.Table.CreateTable("bench"); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Table.Insert("bench", e); err != nil {
		t.Fatal(err)
	}
	if err := srv.Blob.CreateContainer("bench"); err != nil {
		t.Fatal(err)
	}
	entity, err := odata.EncodeEntity(e)
	if err != nil {
		t.Fatal(err)
	}
	const blobSize = 64 << 10
	blob := payload.Synthetic(4, blobSize).Materialize()
	const entityPath = "/table/bench(PartitionKey='p07',RowKey='user0000001234')"
	// The queue rows are a task's cycle, 512 bytes as the bag-of-tasks
	// workload sends them: enough messages for every measured GET to claim
	// one, and a claimed one for every measured DELETE.
	if err := srv.Queue.CreateQueue("bench"); err != nil {
		t.Fatal(err)
	}
	task := payload.Synthetic(5, 512).Materialize()
	message := xmlwire.AppendQueueMessage(nil, task)
	for range 400 {
		if _, err := srv.Queue.Put("bench", payload.Bytes(task), 0); err != nil {
			t.Fatal(err)
		}
	}
	// A listing of 64 tables costs the doublings of its two slices over a
	// listing of one, not an allocation per table.
	many := NewServer(Options{})
	for i := range 64 {
		if err := many.Table.CreateTable(fmt.Sprintf("table%03d", i)); err != nil {
			t.Fatal(err)
		}
	}
	var deletes []string
	for len(deletes) <= 100 {
		msgs, err := srv.Queue.Get("bench", 32, time.Minute)
		if err != nil || len(msgs) == 0 {
			t.Fatalf("claiming messages: %d, %v", len(msgs), err)
		}
		for _, m := range msgs {
			deletes = append(deletes, "/queue/bench/messages/"+m.ID+"?popreceipt="+m.PopReceipt)
		}
	}

	for _, c := range []struct {
		name    string
		ceiling float64
		call    func()
	}{
		{"table GET", 23, func() { serve(t, srv, "GET", entityPath, nil) }},
		{"table PUT (replace)", 35, func() { serve(t, srv, "PUT", entityPath, entity, "If-Match", "*") }},
		{"blob PUT 64 KiB", 27, func() { serve(t, srv, "PUT", "/blob/bench/b", blob, "x-ms-blob-type", "BlockBlob") }},
		{"blob GET 64 KiB", 28, func() { serve(t, srv, "GET", "/blob/bench/b", nil) }},
		// Before PR 24 the POST took 59 allocations and the GET 50.
		{"queue POST message", 22, func() { serve(t, srv, "POST", "/queue/bench/messages", message) }},
		{"queue GET numofmessages=1", 26, func() {
			serve(t, srv, "GET", "/queue/bench/messages?numofmessages=1&visibilitytimeout=60", nil)
		}},
		{"queue DELETE message", 20, func() { serve(t, srv, "DELETE", deletes[0], nil); deletes = deletes[1:] }},
		{"table GET Tables, 1 table", 24, func() { serve(t, srv, "GET", "/table/Tables", nil) }},
		{"table GET Tables, 64 tables", 37, func() { serve(t, many, "GET", "/table/Tables", nil) }},
	} {
		c.call() // warm the scratch pool and the endpoint's stats slot
		if n := testing.AllocsPerRun(100, c.call); n > c.ceiling {
			t.Errorf("%s allocates %.0f times per request, ceiling %.0f", c.name, n, c.ceiling)
		} else {
			t.Logf("%s: %.0f allocations per request", c.name, n)
		}
	}

	// Bytes allocated per user byte moved, upload plus download: the upload
	// is read once into the buffer the engine keeps (1 B/B), the download
	// is written from that buffer, and what is left is the recorder's own
	// copy of the response (1 B/B) — (1 + 1) / 2, plus the envelope.
	const rounds = 50
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for range rounds {
		serve(t, srv, "PUT", "/blob/bench/b", blob, "x-ms-blob-type", "BlockBlob")
		if w := serve(t, srv, "GET", "/blob/bench/b", nil); w.Body.Len() != blobSize {
			t.Fatalf("short blob: %d bytes", w.Body.Len())
		}
	}
	runtime.ReadMemStats(&after)
	if perByte := float64(after.TotalAlloc-before.TotalAlloc) / (2 * rounds * blobSize); perByte > 1.3 {
		t.Errorf("blob PUT+GET allocates %.2f bytes per user byte, ceiling 1.3", perByte)
	} else {
		t.Logf("blob PUT+GET: %.2f bytes allocated per user byte", perByte)
	}
}
