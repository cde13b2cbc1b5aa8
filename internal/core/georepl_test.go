package core

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestGeoreplPointMeasurements runs the georepl scenario across two seeds
// and two lag bounds and checks the recovery metrics stay inside their
// model-implied envelopes.
func TestGeoreplPointMeasurements(t *testing.T) {
	for _, seed := range []int64{2012, 77} {
		for _, lag := range []time.Duration{250 * time.Millisecond, time.Second} {
			cfg := tinyConfig()
			cfg.Seed = seed
			s := NewSuite(cfg)
			pt := s.runGeoreplPoint(lag)
			name := func(what string) string {
				return fmt.Sprintf("%s (seed %d, lag %v)", what, seed, lag)
			}

			if pt.writes == 0 {
				t.Fatalf("%s: no writes committed", name("writes"))
			}
			// RPO: the freeze tally and the per-service ledger must agree,
			// and only queue traffic ran.
			if pt.rpoTotal != uint64(pt.forward.LostAtFreeze) {
				t.Errorf("%s: rpo %d != stream lost-at-freeze %d", name("rpo"), pt.rpoTotal, pt.forward.LostAtFreeze)
			}
			if pt.rpoByService["queue"] != pt.rpoTotal {
				t.Errorf("%s: queue losses %d != total %d", name("rpo"), pt.rpoByService["queue"], pt.rpoTotal)
			}
			// RTO: promotion happens exactly one detection window after the
			// outage; the client-observed recovery follows it but stays well
			// inside the outage + detection envelope (loose bound: +5s of
			// backoff slack).
			if want := cfg.Params.GeoFailoverDetection; pt.rtoPromotion != want {
				t.Errorf("%s: promotion rto %v, want %v", name("rto"), pt.rtoPromotion, want)
			}
			if pt.rtoClient < pt.rtoPromotion {
				t.Errorf("%s: client rto %v before promotion rto %v", name("rto"), pt.rtoClient, pt.rtoPromotion)
			}
			if loose := cfg.GeoOutageDuration + cfg.Params.GeoFailoverDetection + 5*time.Second; pt.rtoClient > loose {
				t.Errorf("%s: client rto %v exceeds loose bound %v", name("rto"), pt.rtoClient, loose)
			}
			// Staleness: readers sampled, every sample is positive, and the
			// worst sample never beats the physically possible minimum (half
			// a WAN round trip).
			if pt.stale.Max() == 0 {
				t.Fatalf("%s: no staleness samples", name("staleness"))
			}
			if pt.stale.Percentile(0) <= 0 {
				t.Errorf("%s: non-positive staleness sample %v", name("staleness"), pt.stale.Percentile(0))
			}
			if pt.stale.Max() < cfg.Params.GeoWANRTT/2 {
				t.Errorf("%s: max staleness %v below one WAN hop", name("staleness"), pt.stale.Max())
			}
			if pt.promotions != 1 {
				t.Errorf("%s: %d partition-map promotions, want 1", name("failover"), pt.promotions)
			}
			// Failback shipped the writes committed on the promoted region.
			if pt.reverse.Applied == 0 {
				t.Errorf("%s: reverse stream applied nothing", name("failback"))
			}
		}
	}
}

// TestGeoreplRPOGrowsWithLagBound pins the experiment's headline
// trade-off at the seed the suite ships with: a looser lag bound batches
// more unshipped records, so the outage loses at least as many.
func TestGeoreplRPOGrowsWithLagBound(t *testing.T) {
	s := NewSuite(tinyConfig())
	tight := s.runGeoreplPoint(250 * time.Millisecond)
	loose := NewSuite(tinyConfig()).runGeoreplPoint(time.Second)
	if tight.rpoTotal > loose.rpoTotal {
		t.Errorf("rpo at 250ms bound (%d) exceeds rpo at 1s bound (%d)", tight.rpoTotal, loose.rpoTotal)
	}
	if loose.rpoTotal == 0 {
		t.Error("1s lag bound lost nothing at the freeze; the scenario no longer exercises RPO")
	}
}

// TestGeoreplReport checks the registry-facing shape: both figures, every
// lag bound's counters, and the scenario note.
func TestGeoreplReport(t *testing.T) {
	s := NewSuite(tinyConfig())
	e, ok := Lookup("georepl")
	if !ok {
		t.Fatal("georepl not registered")
	}
	rep := e.Run(s)
	if len(rep.Figures) != 2 {
		t.Fatalf("got %d figures, want 2", len(rep.Figures))
	}
	text := rep.Render()
	for _, want := range []string{
		"rpo records lost", "rto promotion ms", "rto client ms",
		"staleness p95 ms", "lag bound 250ms", "lag bound 1s",
		"RA-GRS", "primary-region outage",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("report missing %q", want)
		}
	}
}

// TestGeoreplLeavesNothingBehind: a georepl run ends with each stream's
// shipper parked on a signal nobody will fire. Retiring the point ends it,
// so repeated runs keep the goroutine count and the live heap flat instead
// of keeping every finished run's environment alive.
func TestGeoreplLeavesNothingBehind(t *testing.T) {
	e, _ := Lookup("georepl")
	settled := func() (goroutines int, heap uint64) {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return runtime.NumGoroutine(), ms.HeapAlloc
	}
	e.Run(NewSuite(QuickConfig())) // warm-up: what stays for good is allocated
	g0, h0 := settled()
	for range 4 {
		e.Run(NewSuite(QuickConfig()))
	}
	g1, h1 := settled()
	if g1 > g0 {
		t.Errorf("%d goroutines after four more runs, %d before", g1, g0)
	}
	if h1 > h0+1<<20 {
		t.Errorf("live heap grew from %d to %d bytes over four runs", h0, h1)
	}
}
