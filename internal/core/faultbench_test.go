package core

import (
	"strings"
	"testing"
)

func TestRunFaultsShapes(t *testing.T) {
	s := NewSuite(tinyConfig())
	rep := s.RunFaults()
	if rep.ID != "faults" || len(rep.Figures) != 2 {
		t.Fatalf("unexpected report shape: id=%s figures=%d", rep.ID, len(rep.Figures))
	}
	goodput, cost := rep.Figures[0], rep.Figures[1]

	// The zero-rate baseline completes every round with no retries.
	if r0 := seriesY(t, cost, "retries", 0); r0 != 0 {
		t.Errorf("baseline run retried %v times", r0)
	}
	if f0 := seriesY(t, cost, "failed-ops", 0); f0 != 0 {
		t.Errorf("baseline run failed %v ops", f0)
	}
	// Faults make the workload strictly slower, not wrong: goodput drops,
	// retries appear.
	g0, g5 := seriesY(t, goodput, "goodput", 0), seriesY(t, goodput, "goodput", 5)
	if g0 <= 0 || g5 <= 0 {
		t.Fatalf("non-positive goodput: baseline=%v faulted=%v", g0, g5)
	}
	if g5 >= g0 {
		t.Errorf("5%% faults did not reduce goodput: baseline=%v faulted=%v", g0, g5)
	}
	if r5 := seriesY(t, cost, "retries", 5); r5 == 0 {
		t.Error("no retries under a 5% fault rate")
	}
	out := rep.Render()
	for _, want := range []string{"faults injected", "rounds completed", "seeded"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

// TestRunFaultsDeterministic is the experiment-level determinism guard:
// the same seed must reproduce the identical figures and notes (virtual
// runtimes, fault counts, goodput — everything except wall time).
func TestRunFaultsDeterministic(t *testing.T) {
	cfg := tinyConfig()
	cfg.FaultRates = []float64{0.05}
	run := func() *Report { return NewSuite(cfg).RunFaults() }
	a, b := run(), run()
	for i := range a.Figures {
		af, bf := a.Figures[i], b.Figures[i]
		for j := range af.Series {
			as, bs := af.Series[j], bf.Series[j]
			if as.Name != bs.Name || len(as.Points) != len(bs.Points) {
				t.Fatalf("series shape diverged: %q vs %q", as.Name, bs.Name)
			}
			for k := range as.Points {
				if as.Points[k] != bs.Points[k] {
					t.Fatalf("series %q point %d diverged: %+v vs %+v",
						as.Name, k, as.Points[k], bs.Points[k])
				}
			}
		}
	}
	if len(a.Notes) != len(b.Notes) {
		t.Fatalf("note count diverged: %d vs %d", len(a.Notes), len(b.Notes))
	}
	for i := range a.Notes {
		if a.Notes[i] != b.Notes[i] {
			t.Fatalf("note %d diverged:\n--- run A ---\n%s\n--- run B ---\n%s", i, a.Notes[i], b.Notes[i])
		}
	}
	// Different seed, different schedule: the notes embed fault counters, so
	// at 5% they should (overwhelmingly) differ.
	cfg.Seed = 7
	c := NewSuite(cfg).RunFaults()
	same := len(c.Notes) == len(a.Notes)
	if same {
		for i := range c.Notes {
			if c.Notes[i] != a.Notes[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("seed change did not change the fault experiment's notes")
	}
}

// TestTracedFaultsIDsUnique: every cloud a traced run attaches to its log
// mints IDs from a stream of its own, so across the faults experiment's
// data points no span ID appears twice and no two requests root the same
// trace.
func TestTracedFaultsIDsUnique(t *testing.T) {
	cfg := QuickConfig()
	cfg.TraceOps = true
	s := NewSuite(cfg)
	s.RunFaults()
	spans, roots := map[string]int{}, map[string]int{}
	for _, op := range s.TraceLog().Ops() {
		spans[op.SpanID]++
		if op.ParentID == "" {
			roots[op.TraceID]++
		}
	}
	for what, ids := range map[string]map[string]int{"span": spans, "root trace": roots} {
		dup := 0
		for _, n := range ids {
			if n > 1 {
				dup++
			}
		}
		if dup > 0 {
			t.Errorf("%d %s IDs appear more than once among %d", dup, what, len(ids))
		}
	}
}
