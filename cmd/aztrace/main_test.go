package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"azurebench/internal/trace"
	"azurebench/internal/tracegraph"
)

// stdoutOf runs f and returns what it printed.
func stdoutOf(t *testing.T, f func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stdout
	os.Stdout = w
	defer func() { os.Stdout = saved }()
	f()
	w.Close()
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
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
			if out := stdoutOf(t, func() { critpath(&tr, 0, pct) }); !strings.Contains(out, want) {
				t.Errorf("n=%d: want %q in\n%s", n, want, out)
			}
		}
	}
}
