package core

import "testing"

// TestWorkerRolesDoNotSwitch holds the paper's worker roles to processes
// without a coroutine. At quick scale the only switches left in these
// reports are their points' setup processes' — one when each starts and
// one per blocking request — and the kernel fires exactly the events the
// coroutine workers fired before them.
func TestWorkerRolesDoNotSwitch(t *testing.T) {
	if testing.Short() {
		t.Skip("runs ten experiments at quick scale")
	}
	cfg := QuickConfig()
	grid := uint64(len(cfg.Workers))
	const (
		blobSetup  = 1 + 3 // container, page blob, sync queue
		tableSetup = 1 + 1 // the table, or the one queue of fig7 and throttle
		cacheSetup = 1 + 2 // container, hot blob
	)
	for _, c := range []struct {
		id       string
		switches uint64 // at most
		events   uint64
	}{
		{"fig4", blobSetup * grid, 33_364}, // fig5's points too
		{"fig6", 0, 938_457},               // its workers create their own queues
		{"fig7", tableSetup * grid * uint64(len(cfg.ThinkTimes)), 157_388},
		{"fig8", tableSetup * grid * uint64(len(cfg.TableSizesKB)), 260_645},
		{"fig9", tableSetup * grid, 398_110}, // fig8's and fig6's 4 KB points
		{"throttle", tableSetup * grid, 19_135},
		{"faults", 0, 23_468},
		// Two points, each loading its keys after creating the table.
		{"hotspot", 2 * (1 + 1 + uint64(cfg.HotspotKeys)), 400_924},
		// Three blob points, four table points and six queue points.
		{"ablation", 3*blobSetup + 4*tableSetup, 549_926},
		{"cache", 2 * cacheSetup * grid, 49_352},
	} {
		e, _ := Lookup(c.id)
		k := e.Run(NewSuite(cfg)).Kernel
		if k.Switches > c.switches {
			t.Errorf("%s: %d switches, want at most %d, its setup processes'", c.id, k.Switches, c.switches)
		}
		if k.Events != c.events {
			t.Errorf("%s: %d events, want %d as the coroutine workers fired", c.id, k.Events, c.events)
		}
	}
}
