package netmodel

import (
	"testing"
	"time"
)

func TestWANLinkDelays(t *testing.T) {
	l := WANLink{Name: "east-west", RTT: 70 * time.Millisecond, ForwardBps: 100e6, ReverseBps: 25e6}
	if err := l.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	// 35ms propagation + 50MB at 100MB/s = 500ms.
	if got, want := l.ForwardDelay(50_000_000), 35*time.Millisecond+500*time.Millisecond; got != want {
		t.Errorf("ForwardDelay = %v, want %v", got, want)
	}
	// Asymmetry: the same batch takes 4x longer on the reverse path.
	if got, want := l.ReverseDelay(50_000_000), 35*time.Millisecond+2*time.Second; got != want {
		t.Errorf("ReverseDelay = %v, want %v", got, want)
	}
	// Zero bytes still pays propagation.
	if got, want := l.ForwardDelay(0), 35*time.Millisecond; got != want {
		t.Errorf("ForwardDelay(0) = %v, want %v", got, want)
	}
}

func TestWANLinkValidate(t *testing.T) {
	bad := []WANLink{
		{Name: "no-rtt", ForwardBps: 1, ReverseBps: 1},
		{Name: "no-fwd", RTT: time.Millisecond, ReverseBps: 1},
		{Name: "no-rev", RTT: time.Millisecond, ForwardBps: 1},
	}
	for _, l := range bad {
		if l.Validate() == nil {
			t.Errorf("link %q validated despite missing parameters", l.Name)
		}
	}
}

func TestWANLinkInSolver(t *testing.T) {
	l := WANLink{Name: "wan", RTT: 70 * time.Millisecond, ForwardBps: 100e6, ReverseBps: 25e6}
	fwd := &Link{Name: l.Name + "/fwd", Capacity: l.ForwardBps}
	rev := &Link{Name: l.Name + "/rev", Capacity: l.ReverseBps}
	// Two replication streams share the forward direction; one failback
	// stream owns the reverse direction.
	flows := []*Flow{
		{Name: "ship-a", Links: []*Link{fwd}},
		{Name: "ship-b", Links: []*Link{fwd}},
		{Name: "failback", Links: []*Link{rev}},
	}
	if err := Solve(flows); err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if flows[0].Rate != 50e6 || flows[1].Rate != 50e6 {
		t.Errorf("forward flows got %g/%g, want 50e6 each", flows[0].Rate, flows[1].Rate)
	}
	if flows[2].Rate != 25e6 {
		t.Errorf("reverse flow got %g, want 25e6", flows[2].Rate)
	}
}
