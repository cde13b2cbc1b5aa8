package main

import (
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"azurebench/internal/trace"
	"azurebench/internal/tracegraph"
)

// stdoutOf runs f on a writer and returns what it printed.
func stdoutOf(f func(w io.Writer)) string {
	var b strings.Builder
	f(&b)
	return b.String()
}

// TestCritpathSlowPopulationNearestRank: the ">= pNN" population of
// critpath's stage breakdown is cut at the nearest-rank percentile, the one
// every other percentile of the tools uses (metrics.Percentile): with n
// chains lasting 1..n ms, the threshold is the ⌈p·n/100⌉-th.
func TestCritpathSlowPopulationNearestRank(t *testing.T) {
	for _, n := range []int{1, 3, 10, 100} {
		var tr tracegraph.Trace
		for i := 1; i <= n; i++ {
			d := time.Duration(i) * time.Millisecond
			tr.Ops = append(tr.Ops, trace.Op{
				Start: d, Duration: d, Client: "c0", Service: "blob", Name: "Get",
				TraceID: fmt.Sprintf("t%03d", i), SpanID: fmt.Sprintf("s%03d", i),
				Spans: []trace.Span{{Stage: trace.StageServer, Dur: d}},
			})
		}
		for _, pct := range []float64{50, 99, 99.5} {
			rank := int(math.Ceil(pct * float64(n) / 100))
			want := fmt.Sprintf("stage breakdown of the %d traces >= p%g (%dms):", n-rank+1, pct, rank)
			if out := stdoutOf(func(w io.Writer) { critpath(w, &tr, 0, pct) }); !strings.Contains(out, want) {
				t.Errorf("n=%d: want %q in\n%s", n, want, out)
			}
		}
	}
}

// allStages is every stage the simulator attributes, in pipeline order,
// which is not name order: a list that comes out sorted was sorted.
var allStages = []string{
	trace.StageRetryBackoff, trace.StageNicIn, trace.StageThrottle, trace.StageQueueWait,
	trace.StageServer, trace.StageReplicate, trace.StagePipeline, trace.StageNicOut,
	trace.StageFaultWait, trace.StageHandoff, trace.StageWAN,
}

// stagedTrace has n root ops, op i spending (i+1)·unit in every stage.
func stagedTrace(n int, unit time.Duration) *tracegraph.Trace {
	var tr tracegraph.Trace
	for i := 0; i < n; i++ {
		op := trace.Op{
			Start: time.Duration(i) * time.Second, Client: "c0", Service: "blob", Name: "Get",
			TraceID: fmt.Sprintf("t%02d", i), SpanID: fmt.Sprintf("s%02d", i),
		}
		for _, st := range allStages {
			d := time.Duration(i+1) * unit
			op.Spans = append(op.Spans, trace.Span{Stage: st, Dur: d})
			op.Duration += d
		}
		tr.Ops = append(tr.Ops, op)
	}
	return &tr
}

// TestCritpathStepStagesInNameOrder: each step's [stage=…] list is
// printed in stage-name order, whatever order the step's map yields.
func TestCritpathStepStagesInNameOrder(t *testing.T) {
	out := stdoutOf(func(w io.Writer) { critpath(w, stagedTrace(5, time.Millisecond), 5, 99) })
	lists := 0
	for _, line := range strings.Split(out, "\n") {
		open, end := strings.Index(line, "["), strings.LastIndex(line, "]")
		if open < 0 || end < open {
			continue
		}
		lists++
		var names []string
		for _, f := range strings.Fields(line[open+1 : end]) {
			names = append(names, strings.SplitN(f, "=", 2)[0])
		}
		if len(names) != len(allStages) || !sort.StringsAreSorted(names) {
			t.Errorf("stages not in name order: %v", names)
		}
	}
	if lists != 5 {
		t.Fatalf("%d stage lists, want 5:\n%s", lists, out)
	}
}

// TestCritpathBreakdownTiesByName: stages with equal time in the stage
// breakdown are listed by name, the same on every run.
func TestCritpathBreakdownTiesByName(t *testing.T) {
	want := append([]string(nil), allStages...)
	sort.Strings(want)
	tr := stagedTrace(1, time.Millisecond)
	for run := 0; run < 20; run++ {
		out := stdoutOf(func(w io.Writer) { critpath(w, tr, 1, 99) })
		_, breakdown, ok := strings.Cut(out, "stage breakdown")
		if !ok {
			t.Fatalf("no stage breakdown:\n%s", out)
		}
		var got []string
		for _, line := range strings.Split(breakdown, "\n")[1:] {
			if f := strings.Fields(line); len(f) > 0 {
				got = append(got, f[0])
			}
		}
		if strings.Join(got, " ") != strings.Join(want, " ") {
			t.Fatalf("run %d: breakdown order %v, want %v", run, got, want)
		}
	}
}

var errFull = errors.New("no space left on device")

// fullWriter fails every write, as stdout redirected to /dev/full does.
type fullWriter struct{}

func (fullWriter) Write([]byte) (int, error) { return 0, errFull }

// TestRunReturnsWriteError: every subcommand that prints returns the error
// of a writer that fails, so `aztrace … > /dev/full` cannot exit 0; with a
// working writer each one prints and returns nil.
func TestRunReturnsWriteError(t *testing.T) {
	l := trace.New(0)
	for _, op := range stagedTrace(4, time.Millisecond).Ops {
		l.Record(op)
	}
	file := filepath.Join(t.TempDir(), "run.jsonl")
	f, err := os.Create(file)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.WriteJSONL(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"summary", file}, {"critpath", file}, {"tail", file},
		{"chrome", file}, {"flame", file}, {"diff", file, file},
	} {
		if err := run(args, fullWriter{}); !errors.Is(err, errFull) {
			t.Errorf("aztrace %s into a full writer returned %v, want %v", args[0], err, errFull)
		}
		var b strings.Builder
		if err := run(args, &b); err != nil || b.Len() == 0 {
			t.Errorf("aztrace %s: err %v, %d bytes out", args[0], err, b.Len())
		}
	}
}
