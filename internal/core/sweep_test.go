package core

import (
	"bytes"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// atWidth sets GOMAXPROCS — the one thing a suite's width follows — for
// the rest of the test.
func atWidth(t *testing.T, procs int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(procs)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// TestBytesDoNotDependOnWidth regenerates all 16 experiments at
// QuickConfig on one suite at GOMAXPROCS 1, 2 and 8, once with telemetry on
// and once with it off (the leg where points are shared across
// experiments). Every report must render the same with Wall zeroed (which
// pins Report.Kernel as well as every figure and the showcase timelines),
// digest to the committed golden, and the suite must export the same
// -statsfile bytes; a traced run must export the same -tracefile bytes at
// width 8 as at width 1.
func TestBytesDoNotDependOnWidth(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all 16 experiments at quick scale six times")
	}
	golden := readGolden(t, "testdata/digests-quick.golden")
	for _, telemetry := range []bool{true, false} {
		var firstRender, firstStats string
		for _, procs := range []int{1, 2, 8} {
			atWidth(t, procs)
			cfg := QuickConfig()
			cfg.Telemetry = telemetry
			s := NewSuite(cfg)
			if s.Width() != procs {
				t.Fatalf("GOMAXPROCS %d: suite width %d", procs, s.Width())
			}
			var render strings.Builder
			for i, e := range Experiments() {
				rep := e.Run(s)
				if d := rep.CSVDigest(); d != golden[i][1] {
					t.Errorf("telemetry %v, GOMAXPROCS %d: %s digest %s, golden %s", telemetry, procs, e.ID, d, golden[i][1])
				}
				rep.Wall = 0
				render.WriteString(rep.Render())
			}
			var stats bytes.Buffer
			if err := s.WriteStats(&stats); err != nil {
				t.Fatal(err)
			}
			if procs == 1 {
				firstRender, firstStats = render.String(), stats.String()
				continue
			}
			if render.String() != firstRender {
				t.Errorf("telemetry %v: rendered reports at GOMAXPROCS %d differ from GOMAXPROCS 1", telemetry, procs)
			}
			if stats.String() != firstStats {
				t.Errorf("telemetry %v: WriteStats bytes at GOMAXPROCS %d differ from GOMAXPROCS 1", telemetry, procs)
			}
		}
	}

	atWidth(t, 1)
	csv1, trace1 := digestRun(t, 12345)
	atWidth(t, 8)
	csv8, trace8 := digestRun(t, 12345)
	if csv1 != csv8 || trace1 != trace8 {
		t.Errorf("traced run differs between GOMAXPROCS 1 and 8: csv %s vs %s, trace %s vs %s", csv1, csv8, trace1, trace8)
	}
}

// TestLivePointsBounded runs experiments on four lanes of one suite at
// once — RunAblation builds its points on nested sub-suites, RunGeorepl
// its own environments — and counts the points between pointOn and retire:
// never more than GOMAXPROCS, and none left when the runs return. A runner
// that built a simulation outside its sweep would show here.
func TestLivePointsBounded(t *testing.T) {
	const procs = 3
	atWidth(t, procs)
	cfg := tinyConfig()
	cfg.Workers = []int{1, 2, 4, 8}
	s := NewSuite(cfg)
	var live, peak atomic.Int32
	s.pointHook = func(delta int) {
		n := live.Add(int32(delta))
		for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
		}
	}
	var wg sync.WaitGroup
	for _, run := range []func(*Suite) *Report{(*Suite).RunAblation, (*Suite).RunFig9, (*Suite).RunGeorepl, (*Suite).RunHotspot} {
		lane := s.Lane(cfg)
		wg.Add(1)
		go func() {
			defer wg.Done()
			run(lane)
		}()
	}
	wg.Wait()
	if p := peak.Load(); p > procs || p < 2 {
		t.Errorf("peak of %d live points at GOMAXPROCS %d, want 2..%d", p, procs, procs)
	}
	if n := live.Load(); n != 0 {
		t.Errorf("%d points still live after the runs returned", n)
	}
}

// TestPointPanicSurfacesOnCaller makes one table point of fig8 fail for
// good (an entity over the 1 MB limit, so must panics) and checks that
// the panic arrives on the calling goroutine with must's message, no
// pool slot still held and the suite good for another run. A bare sweep
// with one panicking body then checks that the other points drained and no
// sweep goroutine is left behind. (The count is not taken on the fig8 leg:
// a simulation abandoned mid-run leaves its parked processes behind, as it
// did when the panic killed the program.) The last leg fails a shared point
// while three callers wait for it: each of them gets the panic, no slot
// stays held, and the next caller simulates the point again.
func TestPointPanicSurfacesOnCaller(t *testing.T) {
	atWidth(t, 4)
	cfg := tinyConfig()
	cfg.Workers = []int{1, 2, 4}
	cfg.TableSizesKB = []int{4, 2048}
	s := NewSuite(cfg)
	panicOf := func(run func()) (got any) {
		defer func() { got = recover() }()
		run()
		return nil
	}

	got := panicOf(func() { s.RunFig8() })
	// The kernel names the process; the rest is must's own message.
	if msg, _ := got.(string); !strings.HasPrefix(msg, `sim: process "worker`) || !strings.Contains(msg, "panicked: insert: EntityTooLarge") {
		t.Fatalf("recovered %v, want the kernel's report of must's \"insert: EntityTooLarge …\"", got)
	}
	if held := len(s.slots); held != 0 {
		t.Errorf("%d pool slots still held after the panic", held)
	}
	if rep := s.RunFig7(); len(rep.Figures) != 3 {
		t.Errorf("suite unusable after a point's panic: %d figures from fig7", len(rep.Figures))
	}

	before := runtime.NumGoroutine()
	var drained atomic.Int32
	started := make(chan struct{})
	got = panicOf(func() {
		sweep(s, 4, func(i int) *point {
			if i == 2 {
				for range 3 { // fail with the other three in flight
					<-started
				}
				panic("point 2 failed")
			}
			started <- struct{}{}
			defer drained.Add(1)
			return s.runSharedQueuePoint(2, time.Second)
		})
	})
	if got != "point 2 failed" || drained.Load() != 3 {
		t.Errorf("recovered %v with %d other points drained, want \"point 2 failed\" and 3", got, drained.Load())
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before && time.Now().Before(deadline); {
		runtime.Gosched() // a goroutine past its wg.Done may not have exited yet
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("%d goroutines after the sweep, %d before", n, before)
	}

	// One caller simulates the shared point and fails once three others
	// wait on it (parked in shared, as the goroutine dump shows).
	const waiters = 3
	release, started := make(chan struct{}), make(chan struct{})
	results := make(chan any, waiters+1)
	call := func(run func() *point) {
		results <- panicOf(func() {
			sweep(s, 1, func(int) *point { return s.shared("test", 1, 0, run) })
		})
	}
	go call(func() *point { close(started); <-release; panic("shared point failed") })
	<-started
	for range waiters {
		go call(func() *point { t.Error("a waiter simulated the point"); return &point{} })
	}
	for deadline := time.Now().Add(10 * time.Second); parkedInShared() < waiters+1; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines parked in shared, want %d", parkedInShared(), waiters+1)
		}
		runtime.Gosched()
	}
	close(release)
	for range waiters + 1 {
		if got := <-results; got != "shared point failed" {
			t.Errorf("caller recovered %v, want the failing point's panic", got)
		}
	}
	if held := len(s.slots); held != 0 {
		t.Errorf("%d pool slots still held after a shared point's panic", held)
	}
	rebuilt := false
	sweep(s, 1, func(int) *point {
		return s.shared("test", 1, 0, func() *point { rebuilt = true; return &point{} })
	})
	if !rebuilt {
		t.Error("a failed shared point was not simulated again")
	}
}

// parkedInShared counts the goroutines blocked on a channel receive inside
// Suite.shared.
func parkedInShared() int {
	buf := make([]byte, 1<<20)
	n := 0
	for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
		if strings.Contains(g, "[chan receive") && strings.Contains(g, "core.(*Suite).shared(") {
			n++
		}
	}
	return n
}
