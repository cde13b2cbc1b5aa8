package core

import (
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// countPoints makes s count every point it (and its lanes and sub-suites)
// simulates.
func countPoints(s *Suite) *atomic.Int32 {
	var built atomic.Int32
	s.pointHook = func(delta int) {
		if delta > 0 {
			built.Add(1)
		}
	}
	return &built
}

// TestSharedPointsSimulatedOncePerRun: the quick suite on one suite
// simulates 107 points, where each experiment on a suite of its own
// simulates 134 in all (fig5 and netmodel repeat fig4's six, fig9 the 4 KB
// columns of fig6 and fig8, ablation three points of fig4, fig6 and fig8).
// Either way every experiment digests to the golden and renders the same
// report, kernel counts included, so an experiment that reads shared points
// (fig9 without fig6, say) computes them alone and a hit carries the
// counts of the simulation it reuses.
func TestSharedPointsSimulatedOncePerRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all 16 experiments at quick scale twice")
	}
	golden := readGolden(t, "testdata/digests-quick.golden")
	s := NewSuite(QuickConfig())
	built := countPoints(s)
	var shared []string
	for i, e := range Experiments() {
		rep := e.Run(s)
		if d := rep.CSVDigest(); d != golden[i][1] {
			t.Errorf("%s on the shared suite: digest %s, golden %s", e.ID, d, golden[i][1])
		}
		rep.Wall = 0
		shared = append(shared, rep.Render())
	}
	if n := built.Load(); n != 107 {
		t.Errorf("one suite simulated %d points, want 107", n)
	}

	var alone int32
	for i, e := range Experiments() {
		s := NewSuite(QuickConfig())
		built := countPoints(s)
		rep := e.Run(s)
		if d := rep.CSVDigest(); d != golden[i][1] {
			t.Errorf("%s alone: digest %s, golden %s", e.ID, d, golden[i][1])
		}
		if rep.Wall = 0; rep.Render() != shared[i] {
			t.Errorf("%s renders differently alone than on the shared suite", e.ID)
		}
		alone += built.Load()
	}
	if alone != 134 {
		t.Errorf("the experiments alone simulated %d points, want 134", alone)
	}
}

// TestSharedPointsAcrossLanes runs the four experiments that share points
// with each other (fig6, fig8, fig9, ablation) on four lanes at once, so
// lanes wait on each other's points, and requires the reports a serial run
// renders.
func TestSharedPointsAcrossLanes(t *testing.T) {
	runs := []func(*Suite) *Report{(*Suite).RunFig6, (*Suite).RunFig8, (*Suite).RunFig9, (*Suite).RunAblation}
	render := func(reps []*Report) string {
		var b strings.Builder
		for _, rep := range reps {
			rep.Wall = 0
			b.WriteString(rep.Render())
		}
		return b.String()
	}

	atWidth(t, 1)
	serial := NewSuite(tinyConfig())
	want := make([]*Report, len(runs))
	for i, run := range runs {
		want[i] = run(serial)
	}

	atWidth(t, 3)
	s := NewSuite(tinyConfig())
	got := make([]*Report, len(runs))
	var wg sync.WaitGroup
	for i, run := range runs {
		lane := s.Lane(tinyConfig())
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = run(lane)
		}()
	}
	wg.Wait()
	if render(got) != render(want) {
		t.Error("reports from four overlapping lanes differ from a serial run")
	}
}

// TestPointKeyCoversConfig: every Config field is in pointKey, under its
// own name and type, or on the list below of fields no shared runner
// reads. A field added to Config fails here until it is put in one or the
// other.
func TestPointKeyCoversConfig(t *testing.T) {
	unread := map[string]string{
		"Workers":           "a runner argument (w), not a suite-wide input",
		"QueueSizesKB":      "a runner argument (sizeKB)",
		"TableSizesKB":      "a runner argument (sizeKB)",
		"SharedRounds":      "fig7",
		"SharedMsgSizeKB":   "fig7",
		"ThinkTimes":        "fig7",
		"FaultRates":        "faults",
		"FaultWorkers":      "faults",
		"FaultRounds":       "faults",
		"HotspotWorkers":    "hotspot",
		"HotspotKeys":       "hotspot",
		"HotspotHorizon":    "hotspot",
		"HotspotTheta":      "hotspot",
		"GeoWorkers":        "georepl",
		"GeoReaders":        "georepl",
		"GeoHorizon":        "georepl",
		"GeoFailoverAt":     "georepl",
		"GeoOutageDuration": "georepl",
		"GeoLagBounds":      "georepl",
		"TraceOps":          "nothing is shared when it is on",
		"Telemetry":         "nothing is shared when it is on",
		"TelemetryInterval": "read only with Telemetry on",
	}
	cfg, key := reflect.TypeOf(Config{}), reflect.TypeOf(pointKey{})
	if !key.Comparable() {
		t.Fatal("pointKey is not comparable")
	}
	for i := range cfg.NumField() {
		f := cfg.Field(i)
		kf, keyed := key.FieldByName(f.Name)
		_, listed := unread[f.Name]
		switch {
		case keyed && listed:
			t.Errorf("Config.%s is both in pointKey and listed as unread", f.Name)
		case keyed && kf.Type != f.Type:
			t.Errorf("pointKey.%s is %v, Config.%s is %v", f.Name, kf.Type, f.Name, f.Type)
		case !keyed && !listed:
			t.Errorf("Config.%s is neither in pointKey nor listed as read by no shared runner", f.Name)
		}
	}
	for name := range unread {
		if _, ok := cfg.FieldByName(name); !ok {
			t.Errorf("%s is listed as unread but is no Config field", name)
		}
	}
	for i := range key.NumField() {
		if f := key.Field(i); f.IsExported() {
			if _, ok := cfg.FieldByName(f.Name); !ok {
				t.Errorf("pointKey.%s names no Config field", f.Name)
			}
		}
	}
}
