package core

import (
	"strings"
	"testing"
	"time"

	"azurebench/internal/metrics"
	"azurebench/internal/model"
)

// tinyConfig keeps unit-test runtimes low while preserving every shape
// the assertions check.
func tinyConfig() Config {
	cfg := DefaultConfig()
	cfg.Workers = []int{1, 4, 16}
	cfg.BlobMB = 40
	cfg.ChunkMB = 1
	cfg.ChunkReads = 10
	cfg.QueueMessages = 400
	cfg.QueueSizesKB = []int{4, 16, 64}
	cfg.SharedRounds = 60
	cfg.ThinkTimes = []time.Duration{time.Second, 5 * time.Second}
	cfg.TableEntities = 25
	cfg.TableSizesKB = []int{4, 64}
	cfg.FaultRates = []float64{0, 0.05}
	cfg.FaultWorkers = 2
	cfg.FaultRounds = 80
	cfg.HotspotWorkers = 48
	cfg.HotspotKeys = 64
	cfg.HotspotHorizon = 16 * time.Second
	cfg.GeoWorkers = 2
	cfg.GeoReaders = 2
	cfg.GeoHorizon = 12 * time.Second
	cfg.GeoFailoverAt = 4 * time.Second
	cfg.GeoOutageDuration = 3 * time.Second
	cfg.GeoLagBounds = []time.Duration{250 * time.Millisecond, time.Second}
	return cfg
}

func TestSplit(t *testing.T) {
	cases := []struct {
		total, w      int
		wantPerWorker []int
	}{
		{10, 3, []int{4, 3, 3}},
		{9, 3, []int{3, 3, 3}},
		{2, 4, []int{1, 1, 0, 0}},
	}
	for _, c := range cases {
		covered := 0
		prevEnd := 0
		for k := 0; k < c.w; k++ {
			start, n := split(c.total, c.w, k)
			if n != c.wantPerWorker[k] {
				t.Fatalf("split(%d,%d,%d) n = %d, want %d", c.total, c.w, k, n, c.wantPerWorker[k])
			}
			if start != prevEnd {
				t.Fatalf("split(%d,%d,%d) start = %d, want contiguous %d", c.total, c.w, k, start, prevEnd)
			}
			prevEnd = start + n
			covered += n
		}
		if covered != c.total {
			t.Fatalf("split(%d,%d) covers %d", c.total, c.w, covered)
		}
	}
}

func TestExperimentRegistry(t *testing.T) {
	exps := Experiments()
	if len(exps) != 16 {
		t.Fatalf("registry has %d experiments", len(exps))
	}
	seen := map[string]bool{}
	for _, e := range exps {
		if e.ID == "" || e.Title == "" || e.Run == nil {
			t.Fatalf("incomplete experiment %+v", e)
		}
		if seen[e.ID] {
			t.Fatalf("duplicate id %s", e.ID)
		}
		seen[e.ID] = true
	}
	for _, id := range []string{"table1", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "throttle", "faults", "hotspot", "georepl", "barrier", "netmodel", "ablation", "cache", "provision"} {
		if _, ok := Lookup(id); !ok {
			t.Fatalf("Lookup(%s) missing", id)
		}
	}
	if _, ok := Lookup("nope"); ok {
		t.Fatal("Lookup(nope) found something")
	}
}

func TestRunTableI(t *testing.T) {
	s := NewSuite(tinyConfig())
	rep := s.RunTableI()
	out := rep.Render()
	for _, want := range []string{"ExtraSmall", "ExtraLarge", "cores", "1000"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Table I output missing %q:\n%s", want, out)
		}
	}
}

// seriesY extracts y for (series, x) from a figure.
func seriesY(t *testing.T, fig metrics.Figure, series string, x float64) float64 {
	t.Helper()
	for _, s := range fig.Series {
		if s.Name != series {
			continue
		}
		for _, pt := range s.Points {
			if pt.X == x {
				return pt.Y
			}
		}
	}
	t.Fatalf("series %q x=%v not found in %q", series, x, fig.Title)
	return 0
}

func TestFig4Shapes(t *testing.T) {
	s := NewSuite(tinyConfig())
	rep := s.RunFig4()
	tput, times := rep.Figures[0], rep.Figures[1]

	// Paper: upload time shrinks with workers (fixed total data).
	if u1, u16 := seriesY(t, times, "BlockUpload", 1), seriesY(t, times, "BlockUpload", 16); u16 >= u1 {
		t.Errorf("block upload time did not shrink: w1=%v w16=%v", u1, u16)
	}
	// Paper: download time grows with workers (per-worker fixed data,
	// shared replicas).
	if d1, d16 := seriesY(t, times, "BlockDownload", 1), seriesY(t, times, "BlockDownload", 16); d16 <= d1 {
		t.Errorf("block download time did not grow: w1=%v w16=%v", d1, d16)
	}
	// Paper: page upload throughput beats block upload throughput (60 vs
	// 21 MB/s at saturation).
	pu, bu := seriesY(t, tput, "PageUpload", 16), seriesY(t, tput, "BlockUpload", 16)
	if pu <= bu {
		t.Errorf("page upload throughput %v <= block %v", pu, bu)
	}
	if bu < 14 || bu > 27 {
		t.Errorf("block upload throughput = %.1f MB/s, want ~21 (anchor)", bu)
	}
	if pu < 38 || pu > 65 {
		t.Errorf("page upload throughput = %.1f MB/s, want ~50+ (anchor; full saturation needs paper-scale blobs)", pu)
	}
	// Paper: block download aggregate throughput rises with workers and
	// beats page download.
	bd1, bd16 := seriesY(t, tput, "BlockDownload", 1), seriesY(t, tput, "BlockDownload", 16)
	if bd16 <= bd1 {
		t.Errorf("block download throughput did not rise: w1=%v w16=%v", bd1, bd16)
	}
	if pd16 := seriesY(t, tput, "PageDownload", 16); pd16 >= bd16 {
		t.Errorf("page full download (%v) should be slower than block (%v)", pd16, bd16)
	}
}

func TestFig5Shapes(t *testing.T) {
	s := NewSuite(tinyConfig())
	rep := s.RunFig5()
	tput := rep.Figures[0]
	// Paper: sequential block-wise reads outrun random page-wise reads
	// (104 vs 71 MB/s at 96 workers).
	bw, pw := seriesY(t, tput, "BlockWise(sequential)", 16), seriesY(t, tput, "PageWise(random)", 16)
	if bw <= pw {
		t.Errorf("block-wise %v <= page-wise %v", bw, pw)
	}
	// Throughput grows with workers until replica saturation.
	if b1 := seriesY(t, tput, "BlockWise(sequential)", 1); b1 >= bw {
		t.Errorf("block-wise throughput did not grow: w1=%v w16=%v", b1, bw)
	}
}

func TestFig6Shapes(t *testing.T) {
	s := NewSuite(tinyConfig())
	rep := s.RunFig6()
	putFig, peekFig, getFig := rep.Figures[0], rep.Figures[1], rep.Figures[2]
	// Fixed total work: phase time shrinks with workers for every op.
	for _, fig := range []metrics.Figure{putFig, peekFig, getFig} {
		if t1, t16 := seriesY(t, fig, "4KB", 1), seriesY(t, fig, "4KB", 16); t16 >= t1/2 {
			t.Errorf("%s: 4KB phase time did not scale: w1=%v w16=%v", fig.Title, t1, t16)
		}
	}
	// Cost ordering at equal load: peek < put < get(+delete).
	pk, pt, gt := seriesY(t, peekFig, "4KB", 4), seriesY(t, putFig, "4KB", 4), seriesY(t, getFig, "4KB", 4)
	if !(pk < pt && pt < gt) {
		t.Errorf("op ordering violated: peek=%v put=%v get=%v", pk, pt, gt)
	}
	// The 16 KB Get anomaly: 16KB get is slower than the *larger* 48KB.
	g16, g48 := seriesY(t, getFig, "16KB", 4), seriesY(t, getFig, "64KB(48KB usable)", 4)
	if g16 <= g48 {
		t.Errorf("16KB get anomaly absent: 16KB=%v 48KB=%v", g16, g48)
	}
	// No anomaly on put.
	p16, p48 := seriesY(t, putFig, "16KB", 4), seriesY(t, putFig, "64KB(48KB usable)", 4)
	if p16 >= p48 {
		t.Errorf("put should grow with size: 16KB=%v 48KB=%v", p16, p48)
	}
}

func TestFig7Shapes(t *testing.T) {
	s := NewSuite(tinyConfig())
	rep := s.RunFig7()
	getFig := rep.Figures[2]
	// More think time => less contention => cheaper ops (paper: up to ~2x).
	g1 := seriesY(t, getFig, "think=1s", 16)
	g5 := seriesY(t, getFig, "think=5s", 16)
	if g5 > g1 {
		t.Errorf("longer think time increased get cost: think1=%vms think5=%vms", g1, g5)
	}
	// Shared-queue ops cost at least as much as the uncontended baseline
	// (compare against a single worker with think=5s, minimal contention).
	base := seriesY(t, getFig, "think=5s", 1)
	if g1 < base*0.8 {
		t.Errorf("contended cost %v below uncontended baseline %v", g1, base)
	}
}

func TestFig8Shapes(t *testing.T) {
	s := NewSuite(tinyConfig())
	rep := s.RunFig8()
	ins, qry, upd, del := rep.Figures[0], rep.Figures[1], rep.Figures[2], rep.Figures[3]
	// Paper: update most expensive, query cheapest.
	q4, i4, u4, d4 := seriesY(t, qry, "4KB", 4), seriesY(t, ins, "4KB", 4), seriesY(t, upd, "4KB", 4), seriesY(t, del, "4KB", 4)
	if !(q4 < i4 && i4 < u4) {
		t.Errorf("cost ordering violated: query=%v insert=%v update=%v", q4, i4, u4)
	}
	if !(q4 < d4 && d4 < u4) {
		t.Errorf("delete out of band: query=%v delete=%v update=%v", q4, d4, u4)
	}
	// Paper: nearly constant till 4 workers, then 64 KB degrades
	// drastically.
	i1 := seriesY(t, ins, "64KB", 1)
	i4b := seriesY(t, ins, "64KB", 4)
	i16 := seriesY(t, ins, "64KB", 16)
	if i4b > i1*1.5 {
		t.Errorf("64KB insert not flat to 4 workers: w1=%v w4=%v", i1, i4b)
	}
	if i16 < i4b*2 {
		t.Errorf("64KB insert did not degrade at 16 workers: w4=%v w16=%v", i4b, i16)
	}
	// 4 KB degrades much less than 64 KB.
	s4 := seriesY(t, ins, "4KB", 16) / seriesY(t, ins, "4KB", 4)
	s64 := i16 / i4b
	if s64 <= s4 {
		t.Errorf("64KB should degrade more than 4KB: 4KB ratio %v, 64KB ratio %v", s4, s64)
	}
}

func TestFig9Shapes(t *testing.T) {
	cfg := tinyConfig()
	cfg.Workers = []int{1, 4, 32} // table saturation needs > cycle/occ × servers workers
	s := NewSuite(cfg)
	rep := s.RunFig9()
	fig := rep.Figures[0]
	// Queue put per-op time stays roughly flat; table insert grows past 4
	// workers: "Queue storage scales better than the Table storage".
	qp1, qp32 := seriesY(t, fig, "QueuePut", 1), seriesY(t, fig, "QueuePut", 32)
	ti4, ti32 := seriesY(t, fig, "TableInsert", 4), seriesY(t, fig, "TableInsert", 32)
	if qp32 > qp1*2 {
		t.Errorf("queue put per-op degraded: w1=%v w32=%v", qp1, qp32)
	}
	if ti32 < ti4*1.3 {
		t.Errorf("table insert should degrade past 4 workers: w4=%v w32=%v", ti4, ti32)
	}
}

func TestThrottlePlateau(t *testing.T) {
	cfg := tinyConfig()
	cfg.Workers = []int{4, 32}
	cfg.QueueMessages = 2000 // 500 total ops
	s := NewSuite(cfg)
	rep := s.RunThrottle()
	tput := rep.Figures[0]
	busy := rep.Figures[1]
	// Aggregate throughput must not exceed the 500/s target by much.
	if got := seriesY(t, tput, "achieved", 32); got > 650 {
		t.Errorf("achieved %v ops/s exceeds the per-queue target", got)
	}
	// Heavy offered load must show retries.
	if r := seriesY(t, busy, "retries", 32); r == 0 {
		t.Error("no ServerBusy retries at 32 workers")
	}
}

func TestBarrierReport(t *testing.T) {
	cfg := tinyConfig()
	cfg.Workers = []int{2, 8}
	s := NewSuite(cfg)
	rep := s.RunBarrier()
	fig := rep.Figures[0]
	// Crossing a polled barrier costs at least one op; the mean wait must
	// be positive and bounded (poll interval 1s, stagger < 0.5s).
	m2 := seriesY(t, fig, "mean wait", 2)
	m8 := seriesY(t, fig, "mean wait", 8)
	if m2 <= 0 || m8 <= 0 {
		t.Fatalf("non-positive barrier wait: %v %v", m2, m8)
	}
	if m8 > 10 {
		t.Fatalf("barrier wait at 8 workers = %vs, implausibly large", m8)
	}
}

func TestReportRender(t *testing.T) {
	s := NewSuite(tinyConfig())
	rep := s.RunTableI()
	out := rep.Render()
	if !strings.Contains(out, "table1") || !strings.Contains(out, "note:") {
		t.Fatalf("render missing fields:\n%s", out)
	}
}

// TestReportCarriesKernelCounts: an experiment run through the registry is
// stamped with its environments' kernel telemetry, the counts repeat
// exactly, and Render keeps them on the header line that every
// `grep -v "wall time"` diff already strips.
func TestReportCarriesKernelCounts(t *testing.T) {
	cfg := tinyConfig()
	cfg.Workers = []int{1, 8}
	exp, _ := Lookup("fig7")
	a, b := exp.Run(NewSuite(cfg)), exp.Run(NewSuite(cfg))
	if a.Kernel != b.Kernel {
		t.Fatalf("kernel counts differ between identical runs: %+v vs %+v", a.Kernel, b.Kernel)
	}
	if k := a.Kernel; k.Events == 0 || k.Switches == 0 || k.Switches > k.Events || k.PeakHeap < 8 {
		t.Fatalf("implausible kernel counts for an 8-worker run: %+v", k)
	}
	rep := Report{ID: "x", Title: "y", Wall: 812 * time.Millisecond,
		Kernel: KernelStats{Events: 1204331, Switches: 999, PeakHeap: 197}}
	// The counts are deterministic: they sit on a line of their own, which
	// `grep -v "wall time"` keeps.
	if got, want := rep.Render(), "=== x — y (812ms wall time) ===\nkernel: 1 204 331 events, 999 switches, peak heap 197\n"; got != want {
		t.Fatalf("rendered %q\nwant     %q", got, want)
	}
	rep.Kernel = KernelStats{} // a live run has no kernel
	if got, want := rep.Render(), "=== x — y (812ms wall time) ===\n"; got != want {
		t.Fatalf("rendered %q\nwant     %q", got, want)
	}
}

func TestNewSuiteDefaults(t *testing.T) {
	s := NewSuite(Config{})
	if len(s.Config().Workers) == 0 || s.Config().VM.Name != model.Small.Name {
		t.Fatalf("defaults not applied: %+v", s.Config())
	}
}

func TestQuickConfigSmallerThanDefault(t *testing.T) {
	d, q := DefaultConfig(), QuickConfig()
	if q.QueueMessages >= d.QueueMessages || q.BlobMB >= d.BlobMB || len(q.Workers) >= len(d.Workers) {
		t.Fatal("QuickConfig is not smaller than DefaultConfig")
	}
}
