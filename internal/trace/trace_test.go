package trace

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRecordAndRows(t *testing.T) {
	l := New(100)
	l.Record(Op{Start: 0, Duration: 10 * time.Millisecond, Service: "blob", Name: "PutBlock", Bytes: 100})
	l.Record(Op{Start: time.Second, Duration: 30 * time.Millisecond, Service: "blob", Name: "PutBlock", Bytes: 200})
	l.Record(Op{Start: 2 * time.Second, Duration: 5 * time.Millisecond, Service: "queue", Name: "PutMessage", Err: "ServerBusy"})
	rows := l.Rows()
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Sorted by service then name: blob/PutBlock first.
	pb := rows[0]
	if pb.Service != "blob" || pb.Count != 2 || pb.Bytes != 300 {
		t.Fatalf("blob row = %+v", pb)
	}
	if pb.Mean != 20*time.Millisecond || pb.Max != 30*time.Millisecond {
		t.Fatalf("blob stats = %+v", pb)
	}
	if rows[1].Errors != 1 {
		t.Fatalf("queue row = %+v", rows[1])
	}
}

// TestRowsSorted pins the order of both aggregates over enough groups
// that an unsorted map walk cannot come out sorted by chance.
func TestRowsSorted(t *testing.T) {
	l := New(100)
	for i := 11; i >= 0; i-- {
		l.Record(Op{Service: fmt.Sprintf("s%d", i%3), Name: fmt.Sprintf("op%02d", i), Duration: time.Millisecond,
			Spans: []Span{{Stage: StageServer, Dur: time.Millisecond}}})
	}
	key := func(service, name string) string { return service + "/" + name }
	rows, stageRows := l.Rows(), l.StageRows()
	if len(rows) != 12 || len(stageRows) != 12 {
		t.Fatalf("rows = %d, stage rows = %d, want 12", len(rows), len(stageRows))
	}
	for i := 1; i < 12; i++ {
		if key(rows[i-1].Service, rows[i-1].Name) >= key(rows[i].Service, rows[i].Name) {
			t.Fatalf("Rows: %s/%s after %s/%s", rows[i].Service, rows[i].Name, rows[i-1].Service, rows[i-1].Name)
		}
		if key(stageRows[i-1].Service, stageRows[i-1].Name) >= key(stageRows[i].Service, stageRows[i].Name) {
			t.Fatalf("StageRows: %s/%s after %s/%s", stageRows[i].Service, stageRows[i].Name, stageRows[i-1].Service, stageRows[i-1].Name)
		}
	}
}

func TestSummaryRenders(t *testing.T) {
	l := New(10)
	l.Record(Op{Duration: time.Millisecond, Service: "table", Name: "InsertEntity"})
	s := l.Summary()
	if !strings.Contains(s, "table") || !strings.Contains(s, "InsertEntity") {
		t.Fatalf("summary = %q", s)
	}
}

func TestCapacityBoundDropsOldest(t *testing.T) {
	l := New(10)
	for i := 0; i < 25; i++ {
		l.Record(Op{Start: time.Duration(i), Name: "op"})
	}
	if len(l.Ops()) > 10 {
		t.Fatalf("len = %d, cap 10", len(l.Ops()))
	}
	if l.Dropped() == 0 {
		t.Fatal("no drops recorded")
	}
	// Newest op must be retained.
	ops := l.Ops()
	if ops[len(ops)-1].Start != 24 {
		t.Fatalf("newest op lost: %+v", ops[len(ops)-1])
	}
}

func TestReset(t *testing.T) {
	l := New(10)
	l.Record(Op{Name: "x"})
	l.Reset()
	if len(l.Ops()) != 0 || l.Dropped() != 0 {
		t.Fatal("reset incomplete")
	}
}

func TestConcurrentRecording(t *testing.T) {
	l := New(1000)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				l.Record(Op{Name: "op", Duration: time.Microsecond})
			}
		}()
	}
	wg.Wait()
	if len(l.Ops()) != 800 {
		t.Fatalf("len = %d", len(l.Ops()))
	}
}

func TestEvictionBoundaryAndAnnotation(t *testing.T) {
	l := New(10)
	for i := 0; i < 25; i++ {
		l.Record(Op{Start: time.Duration(i) * time.Second, Duration: time.Millisecond, Name: "op"})
	}
	if l.EvictedBefore() == 0 {
		t.Fatal("eviction left no boundary")
	}
	ops := l.Ops()
	// Retained ops must be in record order and all at/after the boundary.
	for i, op := range ops {
		if op.Start < l.EvictedBefore() {
			t.Fatalf("op %d (start %v) predates boundary %v", i, op.Start, l.EvictedBefore())
		}
		if i > 0 && op.Start < ops[i-1].Start {
			t.Fatalf("retained ops out of order at %d", i)
		}
	}
	// The boundary is the earliest retained start.
	if l.EvictedBefore() != ops[0].Start {
		t.Fatalf("boundary %v, earliest retained op %v", l.EvictedBefore(), ops[0].Start)
	}
	// Renders must disclose the truncation.
	if s := l.Summary(); !strings.Contains(s, "dropped by the capacity bound") {
		t.Fatalf("summary hides eviction:\n%s", s)
	}
	// Reset clears the boundary.
	l.Reset()
	if l.EvictedBefore() != 0 {
		t.Fatal("reset kept eviction boundary")
	}
}

func TestTimelinePartialBucketAtEvictionBoundary(t *testing.T) {
	// Capacity 4, ops every 750ms: recording the 5th evicts the oldest
	// two, leaving ops at 1.5s, 2.25s, 3.0s, 3.75s with the boundary at
	// 1.5s — inside the 1s bucket of a per-second timeline, so that
	// bucket is partial. The log's renders and its export must carry the
	// exact boundary for a reader of the file to tell.
	l := New(4)
	for i := 0; i < 6; i++ {
		l.Record(Op{Start: time.Duration(i) * 750 * time.Millisecond, Service: "blob", Name: "PutBlock", Bytes: 100})
	}
	const boundary = 1500 * time.Millisecond
	if l.EvictedBefore() != boundary {
		t.Fatalf("boundary = %v", l.EvictedBefore())
	}
	if bucket := boundary.Truncate(time.Second); bucket == boundary {
		t.Fatal("the eviction boundary sits on a bucket edge; test layout broken")
	}
	if s := l.Summary(); !strings.Contains(s, "window truncated before 1.5s") {
		t.Fatalf("summary does not name the boundary:\n%s", s)
	}
	var buf bytes.Buffer
	if err := l.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	f, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if f.EvictedBefore != boundary || f.Dropped != l.Dropped() {
		t.Fatalf("exported boundary %v dropped %d, log %v dropped %d",
			f.EvictedBefore, f.Dropped, boundary, l.Dropped())
	}
	if len(f.Ops) != 4 {
		t.Fatalf("exported %d ops, retained 4", len(f.Ops))
	}
	if f.Ops[0].Start != boundary {
		t.Fatalf("first exported op at %v, boundary %v", f.Ops[0].Start, boundary)
	}
}

func TestSpanDurAndStageRows(t *testing.T) {
	l := New(100)
	op := Op{
		Service: "blob", Name: "PutBlock", Duration: 10 * time.Millisecond,
		Spans: []Span{
			{Stage: StageNicIn, Dur: 2 * time.Millisecond},
			{Stage: StageQueueWait, Dur: 3 * time.Millisecond},
			{Stage: StageServer, Dur: 5 * time.Millisecond},
		},
	}
	l.Record(op)
	l.Record(op)
	l.Record(Op{Service: "blob", Name: "GetBlock", Duration: time.Millisecond}) // no spans
	if d := op.SpanDur(StageQueueWait); d != 3*time.Millisecond {
		t.Fatalf("SpanDur = %v", d)
	}
	if d := op.SpanDur(StageFaultWait); d != 0 {
		t.Fatalf("absent stage SpanDur = %v", d)
	}
	rows := l.StageRows()
	if len(rows) != 1 {
		t.Fatalf("stage rows = %d (span-less ops must be excluded)", len(rows))
	}
	r := rows[0]
	if r.Count != 2 || r.Total != 20*time.Millisecond {
		t.Fatalf("row = %+v", r)
	}
	if r.Stages[StageQueueWait] != 6*time.Millisecond {
		t.Fatalf("queue-wait total = %v", r.Stages[StageQueueWait])
	}
	var sum time.Duration
	for _, d := range r.Stages {
		sum += d
	}
	if sum != r.Total {
		t.Fatalf("stage totals sum to %v, row total %v", sum, r.Total)
	}
}

func TestStageSummaryRendersPercentages(t *testing.T) {
	l := New(100)
	l.Record(Op{
		Service: "queue", Name: "PutMessage", Duration: 10 * time.Millisecond,
		Spans: []Span{
			{Stage: StageNicIn, Dur: 4 * time.Millisecond},
			{Stage: StageServer, Dur: 6 * time.Millisecond},
		},
	})
	s := l.StageSummary()
	for _, want := range []string{"PutMessage", StageNicIn, StageServer, "40.0%", "60.0%"} {
		if !strings.Contains(s, want) {
			t.Fatalf("stage summary missing %q:\n%s", want, s)
		}
	}
	// Stages never observed must not appear as columns.
	if strings.Contains(s, StageFaultWait) {
		t.Fatalf("stage summary lists unobserved stage:\n%s", s)
	}
	if s := New(10).StageSummary(); !strings.Contains(s, "no operations") {
		t.Fatalf("empty stage summary = %q", s)
	}
}

// TestStageSummaryExtraStagesAlphabetical pins the columns of stages
// outside StageOrder: they come from a map, so only the sort fixes them.
func TestStageSummaryExtraStagesAlphabetical(t *testing.T) {
	l := New(100)
	op := Op{Service: "queue", Name: "PutMessage", Duration: 10 * time.Millisecond,
		Spans: []Span{{Stage: StageServer, Dur: time.Millisecond}}}
	for i := 8; i >= 0; i-- {
		op.Spans = append(op.Spans, Span{Stage: fmt.Sprintf("x%d", i), Dur: time.Millisecond})
	}
	l.Record(op)
	header := strings.Fields(strings.Split(l.StageSummary(), "\n")[1])
	want := []string{"service", "op", "count", "total", StageServer,
		"x0", "x1", "x2", "x3", "x4", "x5", "x6", "x7", "x8"}
	if !slices.Equal(header, want) {
		t.Fatalf("columns = %v, want %v", header, want)
	}
}
