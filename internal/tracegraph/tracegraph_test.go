package tracegraph

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"

	"azurebench/internal/trace"
)

// exportLog writes a trace.Log through the real JSONL exporter and reads
// it back, exercising the actual wire path between recording and analysis.
func exportLog(t *testing.T, l *trace.Log, extra ...string) *Trace {
	t.Helper()
	var buf bytes.Buffer
	for _, line := range extra {
		buf.WriteString(line + "\n")
	}
	if err := l.WriteJSONL(&buf); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	f, err := trace.ReadJSONL(&buf)
	if err != nil {
		t.Fatalf("ReadJSONL: %v", err)
	}
	tr := Trace(f)
	return &tr
}

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

// retriedChain records a two-attempt retried op followed by replication
// fan-out — the canonical shape the sim produces.
func retriedChain(l *trace.Log) {
	l.Record(trace.Op{
		Start: ms(0), Duration: ms(10), Client: "c0", Service: "blob", Name: "PutBlock",
		Err: "ServerBusy", TraceID: "t1", SpanID: "s1",
		Spans: []trace.Span{{Stage: trace.StageNicIn, Dur: ms(2)}, {Stage: trace.StageThrottle, Dur: ms(8)}},
	})
	l.Record(trace.Op{
		Start: ms(30), Duration: ms(20), Client: "c0", Service: "blob", Name: "PutBlock",
		TraceID: "t1", SpanID: "s2", ParentID: "s1",
		Spans: []trace.Span{
			{Stage: trace.StageRetryBackoff, Dur: ms(5)},
			{Stage: trace.StageNicIn, Dur: ms(3)},
			{Stage: trace.StageServer, Dur: ms(10)},
			{Stage: trace.StageNicOut, Dur: ms(2)},
		},
	})
	l.Record(trace.Op{
		Start: ms(60), Duration: ms(15), Client: "geo", Service: "blob", Name: "ReplicatePutBlock",
		TraceID: "t1", SpanID: "s3", ParentID: "s2",
		Spans: []trace.Span{{Stage: trace.StageWAN, Dur: ms(15)}},
	})
}

func TestReadToleratesMetadataAndMarkers(t *testing.T) {
	l := trace.New(0)
	retriedChain(l)
	tr := exportLog(t, l, `{"experiment":"fig4"}`, `{"dropped":7,"evicted_before_ns":1000000}`)
	if len(tr.Ops) != 3 {
		t.Fatalf("ops = %d, want 3", len(tr.Ops))
	}
	if got := tr.Sections; len(got) != 1 || got[0] != "fig4" {
		t.Fatalf("sections = %v", got)
	}
	if tr.Dropped != 7 || tr.EvictedBefore != time.Millisecond {
		t.Fatalf("dropped = %d, evicted before %v", tr.Dropped, tr.EvictedBefore)
	}
}

func TestForestReconstruction(t *testing.T) {
	l := trace.New(0)
	retriedChain(l)
	// A standalone op without identity (pre-tracing recorder).
	l.Record(trace.Op{Start: ms(5), Duration: ms(1), Client: "c1", Service: "queue", Name: "Put"})
	tr := exportLog(t, l)

	f := tr.Forest()
	if len(f.Roots) != 2 {
		t.Fatalf("roots = %d, want 2", len(f.Roots))
	}
	if f.Orphans != 0 || f.Standalone != 1 {
		t.Fatalf("orphans=%d standalone=%d", f.Orphans, f.Standalone)
	}
	// The chain root holds attempt 2 as child, which holds replication.
	root := f.Roots[0]
	if root.Op.SpanID != "s1" || len(root.Children) != 1 {
		t.Fatalf("root = %+v", root.Op)
	}
	if c := root.Children[0]; c.Op.SpanID != "s2" || len(c.Children) != 1 || c.Children[0].Op.SpanID != "s3" {
		t.Fatalf("chain broken: %+v", c.Op)
	}
	rep := tr.Verify()
	if !rep.Complete() || rep.SpanMismatches != 0 || rep.Identified != 3 {
		t.Fatalf("verify = %+v", rep)
	}
}

func TestForestOrphansUnderEviction(t *testing.T) {
	// Capacity 4: recording 6 identified ops drops the oldest half, so a
	// surviving child loses its parent and must surface as an orphan root.
	l := trace.New(4)
	for i := 0; i < 5; i++ {
		l.Record(trace.Op{
			Start: ms(i * 10), Duration: ms(5), Client: "c0", Service: "blob", Name: "Get",
			TraceID: "t1", SpanID: string(rune('a' + i)),
		})
	}
	l.Record(trace.Op{
		Start: ms(100), Duration: ms(5), Client: "c0", Service: "blob", Name: "Get",
		TraceID: "t1", SpanID: "z", ParentID: "a", // parent evicted
	})
	tr := exportLog(t, l)
	if tr.Dropped == 0 {
		t.Fatal("expected eviction metadata")
	}
	f := tr.Forest()
	if f.Orphans != 1 {
		t.Fatalf("orphans = %d, want 1", f.Orphans)
	}
	var orphan *Node
	for _, r := range f.Roots {
		if r.Orphaned {
			orphan = r
		}
	}
	if orphan == nil || orphan.Op.SpanID != "z" {
		t.Fatalf("orphan = %+v", orphan)
	}
	if tr.Verify().Complete() {
		t.Fatal("Verify should report incomplete under eviction")
	}
}

// TestVerifyCountsDuplicateSpansAndEarlyChildren: the two ways a trace
// file built by recorders that share an ID stream (or a retry chain kept
// on a shared client) goes wrong, each with no orphan to show for it.
func TestVerifyCountsDuplicateSpansAndEarlyChildren(t *testing.T) {
	l := trace.New(0)
	retriedChain(l)
	// A second data point's recorder mints s1 again, and a client's next
	// op is hung under an attempt that starts after it.
	l.Record(trace.Op{Start: ms(0), Duration: ms(1), Client: "c9", Service: "blob", Name: "PutBlock", TraceID: "t9", SpanID: "s1"})
	l.Record(trace.Op{Start: ms(25), Duration: ms(1), Client: "c0", Service: "blob", Name: "BlobProps", TraceID: "t1", SpanID: "s4", ParentID: "s2"})
	rep := exportLog(t, l).Verify()
	if rep.Orphans != 0 || rep.DuplicateSpans != 1 || rep.EarlyChildren != 1 || rep.Complete() {
		t.Fatalf("verify = %+v, want 0 orphans, 1 duplicate span, 1 early child, incomplete", rep)
	}
}

func TestCriticalPathStageSums(t *testing.T) {
	l := trace.New(0)
	retriedChain(l)
	tr := exportLog(t, l)
	f := tr.Forest()

	path := CriticalPath(f.Roots[0])
	if len(path) != 2 {
		t.Fatalf("path length = %d, want 2 (replication is async fan-out)", len(path))
	}
	for _, step := range path {
		var sum time.Duration
		for _, d := range step.Stages {
			sum += d
		}
		if sum != step.Op.Duration {
			t.Fatalf("step %s: stage sum %v != duration %v", step.Op.SpanID, sum, step.Op.Duration)
		}
	}
	if path[0].Op.SpanID != "s1" || path[1].Op.SpanID != "s2" {
		t.Fatalf("path = %v, %v", path[0].Op.SpanID, path[1].Op.SpanID)
	}
}

func TestTailAttribution(t *testing.T) {
	l := trace.New(0)
	// 9 fast ops dominated by server time, 1 slow op dominated by
	// queue-wait: the tail must be attributed to queue-wait.
	for i := 0; i < 9; i++ {
		l.Record(trace.Op{
			Start: ms(i * 10), Duration: ms(10), Client: "c0", Service: "table", Name: "Insert",
			TraceID: "t", SpanID: string(rune('a' + i)),
			Spans: []trace.Span{{Stage: trace.StageServer, Dur: ms(8)}, {Stage: trace.StageQueueWait, Dur: ms(2)}},
		})
	}
	l.Record(trace.Op{
		Start: ms(100), Duration: ms(100), Client: "c0", Service: "table", Name: "Insert",
		TraceID: "t", SpanID: "slow",
		Spans: []trace.Span{{Stage: trace.StageServer, Dur: ms(8)}, {Stage: trace.StageQueueWait, Dur: ms(92)}},
	})
	tr := exportLog(t, l)

	groups := tr.TailAttribution(90)
	if len(groups) != 1 {
		t.Fatalf("groups = %d, want 1", len(groups))
	}
	g := groups[0]
	if g.TailCount != 1 {
		t.Fatalf("tail = %+v", g)
	}
	if g.Excess[trace.StageQueueWait] != ms(90) {
		t.Fatalf("queue-wait excess = %v, want 90ms", g.Excess[trace.StageQueueWait])
	}
	out := RenderTail(groups, 90)
	if !strings.Contains(out, "queue-wait") || !strings.Contains(out, "Insert") {
		t.Fatalf("render missing columns:\n%s", out)
	}
}

// TestPercentileNearestRank: op and stage percentiles rank by
// ceil(p·n/100) like metrics.Dist, not by the floor (which made the p50 of
// three ops the fastest one and the p99 of ten the 9th).
func TestPercentileNearestRank(t *testing.T) {
	for _, n := range []int{1, 3, 10, 100} {
		var tr Trace
		for i := 1; i <= n; i++ { // op i lasts i ms, all of it in the server stage
			tr.Ops = append(tr.Ops, trace.Op{
				Start: ms(i), Duration: ms(i), Client: "c0", Service: "blob", Name: "Get",
				Spans: []trace.Span{{Stage: trace.StageServer, Dur: ms(i)}},
			})
		}
		prof := tr.Profiles()[0]
		for _, p := range []int{50, 95, 99, 100} {
			want := ms((p*n + 99) / 100)
			if got := prof.Percentile(float64(p)); got != want {
				t.Errorf("n=%d: op p%d = %v, want %v", n, p, got, want)
			}
			if got := prof.StagePercentile(trace.StageServer, float64(p)); got != want {
				t.Errorf("n=%d: server-stage p%d = %v, want %v", n, p, got, want)
			}
		}
	}
}

func TestDiffDeterministicAndComplete(t *testing.T) {
	build := func(serverMs int) *Trace {
		l := trace.New(0)
		for i := 0; i < 4; i++ {
			l.Record(trace.Op{
				Start: ms(i), Duration: ms(serverMs), Client: "c0", Service: "blob", Name: "Get",
				TraceID: "t", SpanID: string(rune('a' + i)),
				Spans: []trace.Span{{Stage: trace.StageServer, Dur: ms(serverMs)}},
			})
		}
		return exportLog(t, l)
	}
	old, new := build(10), build(20)
	deltas := Diff(old, new)
	if len(deltas) != 2 { // (total) row + server stage row
		t.Fatalf("deltas = %d, want 2", len(deltas))
	}
	if deltas[0].Stage != "" || deltas[1].Stage != trace.StageServer {
		t.Fatalf("order = %+v", deltas)
	}
	if got := deltas[1].P50Pct(); got != 100 {
		t.Fatalf("server p50 delta = %v, want +100%%", got)
	}
	// Re-running must yield identical output (sorted iteration).
	a, b := RenderDiff(deltas), RenderDiff(Diff(old, new))
	if a != b {
		t.Fatal("diff render not deterministic")
	}
}

// TestDiffRowsSorted pins the row order across many groups and stages:
// both are collected from maps, so only the sorts make it reproducible.
func TestDiffRowsSorted(t *testing.T) {
	l := trace.New(0)
	for i := 7; i >= 0; i-- {
		var spans []trace.Span
		for j := 7; j >= 0; j-- {
			spans = append(spans, trace.Span{Stage: fmt.Sprintf("st%d", j), Dur: ms(1)})
		}
		l.Record(trace.Op{
			Duration: ms(8), Service: fmt.Sprintf("svc%d", i%2), Name: fmt.Sprintf("op%d", i),
			TraceID: "t", SpanID: fmt.Sprintf("s%d", i), Spans: spans,
		})
	}
	tr := exportLog(t, l)
	deltas := Diff(tr, tr)
	if len(deltas) != 8*9 {
		t.Fatalf("deltas = %d, want %d", len(deltas), 8*9)
	}
	key := func(d StageDelta) string { return d.Service + "/" + d.Name + "/" + d.Stage }
	for i := 1; i < len(deltas); i++ {
		if key(deltas[i-1]) >= key(deltas[i]) {
			t.Fatalf("row %d %q not after row %d %q", i, key(deltas[i]), i-1, key(deltas[i-1]))
		}
	}
}

// TestProfilesSorted pins the profile order `aztrace summary` prints.
func TestProfilesSorted(t *testing.T) {
	l := trace.New(0)
	for i := 11; i >= 0; i-- {
		l.Record(trace.Op{Duration: ms(1), Service: fmt.Sprintf("svc%d", i%3), Name: fmt.Sprintf("op%02d", i),
			TraceID: "t", SpanID: fmt.Sprintf("s%d", i)})
	}
	ps := exportLog(t, l).Profiles()
	if len(ps) != 12 {
		t.Fatalf("profiles = %d, want 12", len(ps))
	}
	for i := 1; i < len(ps); i++ {
		if ps[i-1].Service+"/"+ps[i-1].Name >= ps[i].Service+"/"+ps[i].Name {
			t.Fatalf("%s/%s after %s/%s", ps[i].Service, ps[i].Name, ps[i-1].Service, ps[i-1].Name)
		}
	}
}

func TestWriteChromeValidJSON(t *testing.T) {
	l := trace.New(0)
	retriedChain(l)
	tr := exportLog(t, l)
	var buf bytes.Buffer
	if err := WriteChrome(&buf, tr); err != nil {
		t.Fatal(err)
	}
	var f struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatalf("chrome output not JSON: %v", err)
	}
	var xEvents int
	for _, ev := range f.TraceEvents {
		if ev["ph"] == "X" {
			xEvents++
		}
	}
	// 3 op events + their stage events (2 + 4 + 1).
	if xEvents != 10 {
		t.Fatalf("X events = %d, want 10", xEvents)
	}
}

func TestWriteFlameCollapsedStacks(t *testing.T) {
	l := trace.New(0)
	retriedChain(l)
	tr := exportLog(t, l)
	var buf bytes.Buffer
	if err := WriteFlame(&buf, tr); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "c0;blob;PutBlock;server 10000\n") {
		t.Fatalf("missing server stack:\n%s", out)
	}
	if !strings.Contains(out, "geo;blob;ReplicatePutBlock;wan 15000\n") {
		t.Fatalf("missing wan stack:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	for i := 1; i < len(lines); i++ {
		if lines[i-1] >= lines[i] {
			t.Fatalf("stacks not sorted: %q >= %q", lines[i-1], lines[i])
		}
	}
}
