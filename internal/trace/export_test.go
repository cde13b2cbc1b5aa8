package trace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestWriteJSONLRoundTrips(t *testing.T) {
	l := New(100)
	l.Record(Op{
		Start: time.Second, Duration: 5 * time.Millisecond,
		Client: "vm0", Service: "blob", Name: "PutBlock", Bytes: 4096,
		Spans: []Span{
			{Stage: StageNicIn, Dur: 2 * time.Millisecond},
			{Stage: StageServer, Dur: 3 * time.Millisecond},
		},
	})
	l.Record(Op{
		Start: 2 * time.Second, Duration: time.Millisecond,
		Service: "queue", Name: "PutMessage", Err: "ServerBusy", Fault: "timeout",
	})
	var buf bytes.Buffer
	if err := l.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("lines = %d:\n%s", len(lines), buf.String())
	}
	var first struct {
		StartNs int64            `json:"start_ns"`
		DurNs   int64            `json:"dur_ns"`
		Client  string           `json:"client"`
		Service string           `json:"service"`
		Op      string           `json:"op"`
		Bytes   int64            `json:"bytes"`
		Spans   map[string]int64 `json:"spans"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatalf("line 1 not JSON: %v", err)
	}
	if first.StartNs != int64(time.Second) || first.DurNs != int64(5*time.Millisecond) {
		t.Fatalf("timestamps = %+v", first)
	}
	if first.Client != "vm0" || first.Service != "blob" || first.Op != "PutBlock" || first.Bytes != 4096 {
		t.Fatalf("identity = %+v", first)
	}
	if first.Spans[StageNicIn] != int64(2*time.Millisecond) || first.Spans[StageServer] != int64(3*time.Millisecond) {
		t.Fatalf("spans = %v", first.Spans)
	}
	var second struct {
		Err   string           `json:"err"`
		Fault string           `json:"fault"`
		Spans map[string]int64 `json:"spans"`
	}
	if err := json.Unmarshal([]byte(lines[1]), &second); err != nil {
		t.Fatalf("line 2 not JSON: %v", err)
	}
	if second.Err != "ServerBusy" || second.Fault != "timeout" {
		t.Fatalf("error fields = %+v", second)
	}
	if second.Spans != nil {
		t.Fatalf("span-less op exported spans: %v", second.Spans)
	}
}

func TestWriteJSONLEvictionMetadata(t *testing.T) {
	l := New(4)
	for i := 0; i < 10; i++ {
		l.Record(Op{Start: time.Duration(i) * time.Second, Name: "op"})
	}
	var buf bytes.Buffer
	if err := l.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	if !sc.Scan() {
		t.Fatal("empty export")
	}
	var meta struct {
		Dropped         uint64 `json:"dropped"`
		EvictedBeforeNs int64  `json:"evicted_before_ns"`
	}
	if err := json.Unmarshal(sc.Bytes(), &meta); err != nil {
		t.Fatalf("metadata line not JSON: %v", err)
	}
	if meta.Dropped != l.Dropped() || meta.EvictedBeforeNs != int64(l.EvictedBefore()) {
		t.Fatalf("metadata = %+v, log dropped=%d boundary=%v", meta, l.Dropped(), l.EvictedBefore())
	}
	n := 0
	for sc.Scan() {
		n++
	}
	if n != len(l.Ops()) {
		t.Fatalf("exported %d ops, retained %d", n, len(l.Ops()))
	}
}

func TestWriteJSONLCarriesIdentity(t *testing.T) {
	l := New(100)
	l.Record(Op{
		Start: time.Second, Duration: time.Millisecond,
		Client: "vm0", Service: "blob", Name: "PutBlock",
		TraceID: "t0000000000000001", SpanID: "s01", ParentID: "s00",
	})
	l.Record(Op{Start: 2 * time.Second, Service: "queue", Name: "PutMessage"})
	var buf bytes.Buffer
	if err := l.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("lines = %d:\n%s", len(lines), buf.String())
	}
	var ids struct {
		TraceID  string `json:"trace_id"`
		SpanID   string `json:"span_id"`
		ParentID string `json:"parent_id"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &ids); err != nil {
		t.Fatalf("line 1 not JSON: %v", err)
	}
	if ids.TraceID != "t0000000000000001" || ids.SpanID != "s01" || ids.ParentID != "s00" {
		t.Fatalf("identity fields = %+v", ids)
	}
	// Untraced ops must not bloat the export with empty identity keys.
	for _, key := range []string{"trace_id", "span_id", "parent_id"} {
		if strings.Contains(lines[1], key) {
			t.Fatalf("id-less op exported %q: %s", key, lines[1])
		}
	}
}
