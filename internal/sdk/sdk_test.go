package sdk

import (
	"bytes"
	"fmt"
	"net/http/httptest"
	"slices"
	"testing"
	"time"

	"azurebench/internal/payload"
	"azurebench/internal/rest"
	"azurebench/internal/storecommon"
	"azurebench/internal/tablestore"
	"azurebench/internal/vclock"
)

// newStack spins up the REST emulator and an SDK client against it.
func newStack(t *testing.T, opts rest.Options) (*Client, *rest.Server) {
	t.Helper()
	srv := rest.NewServer(opts)
	hs := httptest.NewServer(srv)
	t.Cleanup(hs.Close)
	return New(hs.URL, hs.Client(), paperPolicy(3, 10*time.Millisecond)), srv
}

func TestBlobLifecycleOverREST(t *testing.T) {
	c, _ := newStack(t, rest.Options{})
	blob := c.Blob()
	if err := blob.CreateContainer("demo"); err != nil {
		t.Fatal(err)
	}
	data := payload.Synthetic(5, 100_000).Materialize()
	if err := blob.Upload("demo", "data.bin", data); err != nil {
		t.Fatal(err)
	}
	got, err := blob.Download("demo", "data.bin")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("round trip mismatch")
	}
	part, err := blob.DownloadRange("demo", "data.bin", 10, 100)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(part, data[10:110]) {
		t.Fatal("range mismatch")
	}
	props, err := blob.Props("demo", "data.bin")
	if err != nil {
		t.Fatal(err)
	}
	if props.Size != int64(len(data)) || props.BlobType != "BlockBlob" || props.ETag == "" {
		t.Fatalf("props = %+v", props)
	}
	names, err := blob.ListBlobs("demo", "")
	if err != nil || len(names) != 1 || names[0] != "data.bin" {
		t.Fatalf("list = %v, %v", names, err)
	}
	if err := blob.Delete("demo", "data.bin"); err != nil {
		t.Fatal(err)
	}
	if _, err := blob.Download("demo", "data.bin"); !storecommon.IsNotFound(err) {
		t.Fatalf("download after delete = %v", err)
	}
	if err := blob.DeleteContainer("demo"); err != nil {
		t.Fatal(err)
	}
}

func TestBlockBlobStagingOverREST(t *testing.T) {
	c, _ := newStack(t, rest.Options{})
	blob := c.Blob()
	if err := blob.CreateContainer("demo"); err != nil {
		t.Fatal(err)
	}
	var ids []string
	var want []byte
	for i := 0; i < 3; i++ {
		id := fmt.Sprintf("block-%02d", i)
		chunk := payload.Synthetic(uint64(i), 1000).Materialize()
		if err := blob.PutBlock("demo", "staged", id, chunk); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
		want = append(want, chunk...)
	}
	committed, uncommitted, err := blob.GetBlockList("demo", "staged")
	if err != nil || len(committed) != 0 || len(uncommitted) != 3 {
		t.Fatalf("block lists = %v/%v, %v", committed, uncommitted, err)
	}
	if err := blob.PutBlockList("demo", "staged", ids); err != nil {
		t.Fatal(err)
	}
	got, err := blob.Download("demo", "staged")
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("committed content mismatch (err=%v)", err)
	}
	committed, uncommitted, _ = blob.GetBlockList("demo", "staged")
	if len(committed) != 3 || len(uncommitted) != 0 {
		t.Fatalf("post-commit lists = %v/%v", committed, uncommitted)
	}
}

func TestPageBlobOverREST(t *testing.T) {
	c, _ := newStack(t, rest.Options{})
	blob := c.Blob()
	if err := blob.CreateContainer("demo"); err != nil {
		t.Fatal(err)
	}
	if err := blob.CreatePageBlob("demo", "pages", 4096); err != nil {
		t.Fatal(err)
	}
	data := payload.Synthetic(9, 1024).Materialize()
	if err := blob.PutPages("demo", "pages", 512, data); err != nil {
		t.Fatal(err)
	}
	ranges, err := blob.GetPageRanges("demo", "pages")
	if err != nil || len(ranges) != 1 || ranges[0] != (PageRange{Start: 512, End: 1535}) {
		t.Fatalf("ranges = %v, %v", ranges, err)
	}
	got, err := blob.DownloadRange("demo", "pages", 512, 1024)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("page read mismatch (err=%v)", err)
	}
	if err := blob.ClearPages("demo", "pages", 512, 512); err != nil {
		t.Fatal(err)
	}
	ranges, _ = blob.GetPageRanges("demo", "pages")
	if len(ranges) != 1 || ranges[0].Start != 1024 {
		t.Fatalf("ranges after clear = %v", ranges)
	}
	// Unaligned write is rejected with the Azure error code.
	err = blob.PutPages("demo", "pages", 100, data[:512])
	if storecommon.CodeOf(err) != storecommon.CodeInvalidPageRange {
		t.Fatalf("unaligned write = %v", err)
	}
}

func TestBlobSnapshotAndLeaseOverREST(t *testing.T) {
	c, _ := newStack(t, rest.Options{})
	blob := c.Blob()
	if err := blob.CreateContainer("demo"); err != nil {
		t.Fatal(err)
	}
	if err := blob.Upload("demo", "b", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	ts, err := blob.Snapshot("demo", "b")
	if err != nil {
		t.Fatal(err)
	}
	if err := blob.Upload("demo", "b", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	snap, err := blob.DownloadSnapshot("demo", "b", ts)
	if err != nil || string(snap) != "v1" {
		t.Fatalf("snapshot = %q, %v", snap, err)
	}
	// Lease protocol over REST.
	id, err := blob.AcquireLease("demo", "b", -1)
	if err != nil || id == "" {
		t.Fatalf("acquire = %q, %v", id, err)
	}
	if err := blob.Upload("demo", "b", []byte("v3")); storecommon.CodeOf(err) != storecommon.CodeLeaseIDMissing {
		t.Fatalf("write to leased blob = %v", err)
	}
	if err := blob.ReleaseLease("demo", "b", id); err != nil {
		t.Fatal(err)
	}
	if err := blob.Upload("demo", "b", []byte("v3")); err != nil {
		t.Fatalf("write after release = %v", err)
	}
}

func TestQueueLifecycleOverREST(t *testing.T) {
	c, _ := newStack(t, rest.Options{})
	q := c.Queue()
	if err := q.Create("jobs"); err != nil {
		t.Fatal(err)
	}
	body := []byte("hello queue")
	if err := q.Put("jobs", body, 0); err != nil {
		t.Fatal(err)
	}
	if n, err := q.ApproximateCount("jobs"); err != nil || n != 1 {
		t.Fatalf("count = %d, %v", n, err)
	}
	peeked, err := q.Peek("jobs", 1)
	if err != nil || len(peeked) != 1 || !bytes.Equal(peeked[0].Body, body) {
		t.Fatalf("peek = %v, %v", peeked, err)
	}
	if peeked[0].PopReceipt != "" {
		t.Fatal("peeked message has a pop receipt")
	}
	msgs, err := q.Get("jobs", 1, time.Minute)
	if err != nil || len(msgs) != 1 {
		t.Fatalf("get = %v, %v", msgs, err)
	}
	if msgs[0].DequeueCount != 1 || msgs[0].PopReceipt == "" {
		t.Fatalf("message = %+v", msgs[0])
	}
	// Update rotates the pop receipt.
	pr, err := q.Update("jobs", msgs[0].ID, msgs[0].PopReceipt, []byte("updated"), time.Minute)
	if err != nil || pr == "" || pr == msgs[0].PopReceipt {
		t.Fatalf("update = %q, %v", pr, err)
	}
	if err := q.DeleteMessage("jobs", msgs[0].ID, pr); err != nil {
		t.Fatal(err)
	}
	if err := q.Put("jobs", []byte("x"), 0); err != nil {
		t.Fatal(err)
	}
	if err := q.Clear("jobs"); err != nil {
		t.Fatal(err)
	}
	if n, _ := q.ApproximateCount("jobs"); n != 0 {
		t.Fatalf("count after clear = %d", n)
	}
	if err := q.Delete("jobs"); err != nil {
		t.Fatal(err)
	}
	if err := q.Put("jobs", body, 0); !storecommon.IsNotFound(err) {
		t.Fatalf("put to deleted queue = %v", err)
	}
}

// A message of every byte value goes through both directions of the wire
// codec — request body in, message list out — at every step of its life.
func TestQueueMessageOfEveryByteRoundTrips(t *testing.T) {
	clock := &vclock.Manual{}
	c, _ := newStack(t, rest.Options{Clock: clock})
	q := c.Queue()
	if err := q.Create("jobs"); err != nil {
		t.Fatal(err)
	}
	body := make([]byte, 256)
	for i := range body {
		body[i] = byte(i)
	}
	if err := q.Put("jobs", body, 0); err != nil {
		t.Fatal(err)
	}
	peeked, err := q.Peek("jobs", 1)
	if err != nil || len(peeked) != 1 || !bytes.Equal(peeked[0].Body, body) ||
		peeked[0].PopReceipt != "" || !peeked[0].NextVisible.IsZero() || peeked[0].DequeueCount != 0 {
		t.Fatalf("peek = %+v, %v", peeked, err)
	}
	claimed, err := q.Get("jobs", 1, 10*time.Second)
	if err != nil || len(claimed) != 1 || !bytes.Equal(claimed[0].Body, body) || claimed[0].ID != peeked[0].ID ||
		claimed[0].DequeueCount != 1 || !claimed[0].NextVisible.Equal(clock.Now().Add(10*time.Second)) {
		t.Fatalf("get = %+v, %v", claimed, err)
	}
	slices.Reverse(body)
	receipt, err := q.Update("jobs", claimed[0].ID, claimed[0].PopReceipt, body, time.Second)
	if err != nil || receipt == "" {
		t.Fatalf("update = %q, %v", receipt, err)
	}
	clock.Advance(time.Second)
	again, err := q.Get("jobs", 1, time.Minute)
	if err != nil || len(again) != 1 || !bytes.Equal(again[0].Body, body) || again[0].DequeueCount != 2 {
		t.Fatalf("get after update = %+v, %v", again, err)
	}
	if err := q.DeleteMessage("jobs", again[0].ID, again[0].PopReceipt); err != nil {
		t.Fatal(err)
	}
	if left, err := q.Peek("jobs", 32); err != nil || left != nil {
		t.Fatalf("after delete the queue shows %+v, %v", left, err)
	}
}

func TestTableLifecycleOverREST(t *testing.T) {
	c, _ := newStack(t, rest.Options{})
	tc := c.Table()
	if err := tc.Create("People"); err != nil {
		t.Fatal(err)
	}
	names, err := tc.List()
	if err != nil || len(names) != 1 || names[0] != "People" {
		t.Fatalf("list = %v, %v", names, err)
	}
	e := &tablestore.Entity{
		PartitionKey: "smith",
		RowKey:       "john",
		Props: map[string]tablestore.Value{
			"Age":    tablestore.Int32(42),
			"Score":  tablestore.Double(4.5),
			"Big":    tablestore.Int64(1 << 40),
			"Active": tablestore.Bool(true),
			"Name":   tablestore.String("John Smith"),
			"Photo":  tablestore.Binary(payload.Synthetic(3, 256)),
			"Born":   tablestore.DateTime(time.Date(1970, 1, 2, 3, 4, 5, 0, time.UTC)),
		},
	}
	etag, err := tc.Insert("People", e)
	if err != nil || etag == "" {
		t.Fatalf("insert = %q, %v", etag, err)
	}
	got, err := tc.Get("People", "smith", "john")
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range e.Props {
		if !got.Props[name].Equal(want) {
			t.Errorf("prop %s = %#v, want %#v", name, got.Props[name], want)
		}
	}
	// Conditional replace honoured over the wire.
	got.Props["Age"] = tablestore.Int32(43)
	if _, err := tc.Replace("People", got, "wrong-etag"); !storecommon.IsPreconditionFailed(err) {
		t.Fatalf("stale replace = %v", err)
	}
	newTag, err := tc.Replace("People", got, etag)
	if err != nil || newTag == etag {
		t.Fatalf("replace = %q, %v", newTag, err)
	}
	// Merge keeps unnamed properties.
	patch := &tablestore.Entity{PartitionKey: "smith", RowKey: "john",
		Props: map[string]tablestore.Value{"City": tablestore.String("Atlanta")}}
	if _, err := tc.Merge("People", patch, storecommon.ETagAny); err != nil {
		t.Fatal(err)
	}
	got, _ = tc.Get("People", "smith", "john")
	if got.Props["Age"].I != 43 || got.Props["City"].S != "Atlanta" {
		t.Fatalf("merged = %v", got.Props)
	}
	if err := tc.DeleteEntity("People", "smith", "john", storecommon.ETagAny); err != nil {
		t.Fatal(err)
	}
	if _, err := tc.Get("People", "smith", "john"); !storecommon.IsNotFound(err) {
		t.Fatalf("get after delete = %v", err)
	}
	if err := tc.Delete("People"); err != nil {
		t.Fatal(err)
	}
}

func TestTableQueryWithFilterAndContinuationOverREST(t *testing.T) {
	c, _ := newStack(t, rest.Options{})
	tc := c.Table()
	if err := tc.Create("Runs"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		e := &tablestore.Entity{
			PartitionKey: "exp",
			RowKey:       fmt.Sprintf("r%02d", i),
			Props:        map[string]tablestore.Value{"N": tablestore.Int32(int32(i))},
		}
		if _, err := tc.Insert("Runs", e); err != nil {
			t.Fatal(err)
		}
	}
	// Filter pushes through the wire and back.
	got, err := tc.QueryAll("Runs", "N ge 6")
	if err != nil || len(got) != 4 {
		t.Fatalf("filtered = %d, %v", len(got), err)
	}
	// Continuation: page size 3 over 10 rows = 4 pages.
	var pages int
	var from tablestore.Continuation
	total := 0
	for {
		page, err := tc.Query("Runs", "", 3, from)
		if err != nil {
			t.Fatal(err)
		}
		pages++
		total += len(page.Entities)
		if page.Next.IsZero() {
			break
		}
		from = page.Next
	}
	if pages != 4 || total != 10 {
		t.Fatalf("pages=%d total=%d", pages, total)
	}
	// Key escaping: quotes in keys survive the OData key syntax.
	q := &tablestore.Entity{PartitionKey: "o'brien", RowKey: "it's"}
	if _, err := tc.Insert("Runs", q); err != nil {
		t.Fatal(err)
	}
	got2, err := tc.Get("Runs", "o'brien", "it's")
	if err != nil || got2.PartitionKey != "o'brien" || got2.RowKey != "it's" {
		t.Fatalf("quoted keys = %+v, %v", got2, err)
	}
}

func TestRESTThrottleRetries(t *testing.T) {
	c, _ := newStack(t, rest.Options{
		Throttle:       true,
		QueueOpsPerSec: 50, // small burst (rate/10 + 1 = 6) to force 503s
	})
	q := c.Queue()
	if err := q.Create("busy"); err != nil {
		t.Fatal(err)
	}
	// Hammer: more back-to-back ops than the burst allows. The SDK's
	// retry policy must absorb the 503s.
	for i := 0; i < 20; i++ {
		if err := q.Put("busy", []byte("m"), 0); err != nil {
			t.Fatalf("put %d failed through retries: %v", i, err)
		}
	}
	if n, err := q.ApproximateCount("busy"); err != nil || n != 20 {
		t.Fatalf("count = %d, %v", n, err)
	}
}

func TestErrorCodeMapping(t *testing.T) {
	c, _ := newStack(t, rest.Options{})
	if _, err := c.Blob().Download("absent", "blob"); storecommon.CodeOf(err) != storecommon.CodeContainerNotFound {
		t.Fatalf("missing container = %v", err)
	}
	if err := c.Blob().CreateContainer("demo"); err != nil {
		t.Fatal(err)
	}
	if err := c.Blob().CreateContainer("demo"); !storecommon.IsConflict(err) {
		t.Fatalf("duplicate container = %v", err)
	}
	if _, err := c.Table().Get("NoTable", "p", "r"); storecommon.CodeOf(err) != storecommon.CodeTableNotFound {
		t.Fatalf("missing table = %v", err)
	}
}

// TestQueueBatchSizeBoundOverREST is the SDK round trip of the
// numofmessages contract: 1 to 32 on Get and Peek, anything else a 400
// OutOfRangeQueryParameterValue that hides nothing.
func TestQueueBatchSizeBoundOverREST(t *testing.T) {
	c, _ := newStack(t, rest.Options{})
	q := c.Queue()
	if err := q.Create("jobs"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if err := q.Put("jobs", []byte{byte(i)}, 0); err != nil {
			t.Fatal(err)
		}
	}
	for _, max := range []int{0, -1, 33, 1_000_000} {
		if _, err := q.Get("jobs", max, time.Minute); storecommon.CodeOf(err) != storecommon.CodeOutOfRangeQueryParameterValue || storecommon.StatusOf(err) != 400 {
			t.Fatalf("Get(%d) = %v, want 400 OutOfRangeQueryParameterValue", max, err)
		}
		if _, err := q.Peek("jobs", max); storecommon.CodeOf(err) != storecommon.CodeOutOfRangeQueryParameterValue {
			t.Fatalf("Peek(%d) = %v, want OutOfRangeQueryParameterValue", max, err)
		}
	}
	if peeked, err := q.Peek("jobs", 32); err != nil || len(peeked) != 32 {
		t.Fatalf("Peek(32) = %d messages, %v", len(peeked), err)
	}
	// The rejected calls dequeued nothing: all 40 are still visible.
	if msgs, err := q.Get("jobs", 32, time.Minute); err != nil || len(msgs) != 32 {
		t.Fatalf("Get(32) = %d messages, %v", len(msgs), err)
	}
	if msgs, err := q.Get("jobs", 32, time.Minute); err != nil || len(msgs) != 8 {
		t.Fatalf("second Get(32) = %d messages, %v, want the remaining 8", len(msgs), err)
	}
}
