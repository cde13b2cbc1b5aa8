package netmodel

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-6 }

func TestEqualShareOnOneLink(t *testing.T) {
	l := &Link{Name: "l", Capacity: 9}
	flows := []*Flow{
		{Name: "a", Links: []*Link{l}},
		{Name: "b", Links: []*Link{l}},
		{Name: "c", Links: []*Link{l}},
	}
	if err := Solve(flows); err != nil {
		t.Fatal(err)
	}
	for _, f := range flows {
		if !approx(f.Rate, 3) {
			t.Fatalf("flow %s rate = %v, want 3", f.Name, f.Rate)
		}
	}
}

func TestClassicBottleneckExample(t *testing.T) {
	// The textbook example: link1 cap 10 shared by A,B; link2 cap 4
	// crossed by B,C. Max-min: B and C get 2 each (link2 bottleneck),
	// A gets the rest of link1 = 8.
	l1 := &Link{Name: "l1", Capacity: 10}
	l2 := &Link{Name: "l2", Capacity: 4}
	a := &Flow{Name: "a", Links: []*Link{l1}}
	b := &Flow{Name: "b", Links: []*Link{l1, l2}}
	c := &Flow{Name: "c", Links: []*Link{l2}}
	if err := Solve([]*Flow{a, b, c}); err != nil {
		t.Fatal(err)
	}
	if !approx(b.Rate, 2) || !approx(c.Rate, 2) {
		t.Fatalf("b=%v c=%v, want 2 each", b.Rate, c.Rate)
	}
	if !approx(a.Rate, 8) {
		t.Fatalf("a=%v, want 8", a.Rate)
	}
}

func TestDemandCapsFlow(t *testing.T) {
	l := &Link{Name: "l", Capacity: 10}
	a := &Flow{Name: "a", Links: []*Link{l}, Demand: 1}
	b := &Flow{Name: "b", Links: []*Link{l}}
	if err := Solve([]*Flow{a, b}); err != nil {
		t.Fatal(err)
	}
	if !approx(a.Rate, 1) {
		t.Fatalf("a=%v, want its demand 1", a.Rate)
	}
	if !approx(b.Rate, 9) {
		t.Fatalf("b=%v, want the residual 9", b.Rate)
	}
}

func TestFlowCrossingLinkTwiceCountsOnce(t *testing.T) {
	l := &Link{Name: "l", Capacity: 6}
	a := &Flow{Name: "a", Links: []*Link{l, l}}
	b := &Flow{Name: "b", Links: []*Link{l}}
	if err := Solve([]*Flow{a, b}); err != nil {
		t.Fatal(err)
	}
	if !approx(a.Rate+b.Rate, 6) || !approx(a.Rate, b.Rate) {
		t.Fatalf("a=%v b=%v", a.Rate, b.Rate)
	}
}

func TestErrors(t *testing.T) {
	if err := Solve([]*Flow{{Name: "x"}}); err == nil {
		t.Fatal("flow without links accepted")
	}
	bad := &Link{Name: "bad", Capacity: 0}
	if err := Solve([]*Flow{{Name: "x", Links: []*Link{bad}}}); err == nil {
		t.Fatal("zero-capacity link accepted")
	}
}

func TestUtilizationAndAggregate(t *testing.T) {
	l := &Link{Name: "l", Capacity: 8}
	flows := []*Flow{
		{Name: "a", Links: []*Link{l}},
		{Name: "b", Links: []*Link{l}},
	}
	if err := Solve(flows); err != nil {
		t.Fatal(err)
	}
	if !approx(Aggregate(flows), 8) {
		t.Fatalf("aggregate = %v", Aggregate(flows))
	}
	loads := Utilization(flows)
	if len(loads) != 1 || !approx(loads[0].Fraction, 1) {
		t.Fatalf("loads = %+v", loads)
	}
}

// TestUtilizationSortedByLinkName pins the report order: loads are keyed
// by link in a map, so only the sort makes the order reproducible.
func TestUtilizationSortedByLinkName(t *testing.T) {
	var flows []*Flow
	for i := 11; i >= 0; i-- {
		l := &Link{Name: fmt.Sprintf("l%02d", i), Capacity: 1}
		flows = append(flows, &Flow{Name: l.Name, Links: []*Link{l}})
	}
	if err := Solve(flows); err != nil {
		t.Fatal(err)
	}
	loads := Utilization(flows)
	if len(loads) != len(flows) {
		t.Fatalf("loads = %d, want %d", len(loads), len(flows))
	}
	for i, ld := range loads {
		if want := fmt.Sprintf("l%02d", i); ld.Link.Name != want {
			t.Fatalf("loads[%d] = %s, want %s", i, ld.Link.Name, want)
		}
	}
}

func TestBlobDownloadScenarioCrossover(t *testing.T) {
	// Below the crossover (w*nic < pool) clients are NIC-bound; above it
	// the replica pool caps the aggregate. nic=12.5, pool=3*60=180 =>
	// crossover at 14.4 workers.
	for _, w := range []int{1, 8} {
		flows := BlobDownloadScenario(w, 12.5, 60, 3000, 3)
		if err := Solve(flows); err != nil {
			t.Fatal(err)
		}
		if !approx(Aggregate(flows), 12.5*float64(w)) {
			t.Fatalf("w=%d aggregate = %v, want NIC-bound %v", w, Aggregate(flows), 12.5*float64(w))
		}
	}
	flows := BlobDownloadScenario(96, 12.5, 60, 3000, 3)
	if err := Solve(flows); err != nil {
		t.Fatal(err)
	}
	if !approx(Aggregate(flows), 180) {
		t.Fatalf("aggregate at 96 = %v, want pool-bound 180", Aggregate(flows))
	}
}

// TestMaxMinProperties checks the defining max-min properties on random
// topologies: (1) no link over capacity; (2) every flow is bottlenecked —
// limited by its demand or by some saturated link on which it has a
// maximal rate.
func TestMaxMinProperties(t *testing.T) {
	f := func(seedByte uint8, nFlowsRaw, nLinksRaw uint8) bool {
		nLinks := int(nLinksRaw%4) + 1
		nFlows := int(nFlowsRaw%6) + 1
		links := make([]*Link, nLinks)
		for i := range links {
			links[i] = &Link{Name: fmt.Sprintf("l%d", i), Capacity: float64((int(seedByte)+i*7)%20 + 1)}
		}
		flows := make([]*Flow, nFlows)
		for i := range flows {
			// Deterministic pseudo-random subset of links (non-empty).
			var ls []*Link
			for j, l := range links {
				if (int(seedByte)+i*3+j*5)%2 == 0 {
					ls = append(ls, l)
				}
			}
			if len(ls) == 0 {
				ls = []*Link{links[i%nLinks]}
			}
			flows[i] = &Flow{Name: fmt.Sprintf("f%d", i), Links: ls}
		}
		if err := Solve(flows); err != nil {
			return false
		}
		// (1) Capacity respected.
		for _, ll := range Utilization(flows) {
			if ll.Used > ll.Link.Capacity+1e-6 {
				return false
			}
		}
		// (2) Bottleneck condition.
		used := map[*Link]float64{}
		for _, fl := range flows {
			for _, l := range uniqueLinks(fl) {
				used[l] += fl.Rate
			}
		}
		for _, fl := range flows {
			bottled := false
			for _, l := range uniqueLinks(fl) {
				if used[l] >= l.Capacity-1e-6 {
					// fl must be among the maximal flows on this link.
					maxRate := 0.0
					for _, other := range flows {
						for _, ol := range uniqueLinks(other) {
							if ol == l && other.Rate > maxRate {
								maxRate = other.Rate
							}
						}
					}
					if fl.Rate >= maxRate-1e-6 {
						bottled = true
						break
					}
				}
			}
			if !bottled {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
