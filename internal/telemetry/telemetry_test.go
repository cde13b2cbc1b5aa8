package telemetry

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"azurebench/internal/sim"
	"azurebench/internal/storecommon"
)

// TestSamplerRates drives a resource at a known cadence and checks the
// interval rates the sampler derives from the cumulative stats.
func TestSamplerRates(t *testing.T) {
	env := sim.NewEnv(1)
	res := sim.NewResource(env, "srv", 1)
	sp := NewSampler("test", time.Second)
	stations := []Station{{Name: "srv", Res: res}}
	// 10 ops of 100ms each: the server is busy 100% and serves 10 ops/s.
	env.Go("load", func(p *sim.Proc) {
		for i := 0; i < 10; i++ {
			res.Use(p, 100*time.Millisecond)
		}
	})
	env.Go("obs", func(p *sim.Proc) {
		p.Sleep(time.Second)
		sp.Observe(env.Now(), stations)
	})
	env.Run()
	samples := sp.samples
	if len(samples) != 1 {
		t.Fatalf("samples = %d", len(samples))
	}
	sm := samples[0]
	if sm.Station != "srv" || sm.At != time.Second || sm.Capacity != 1 {
		t.Fatalf("sample = %+v", sm)
	}
	if sm.OpsPerSec != 10 {
		t.Fatalf("ops/s = %v, want 10", sm.OpsPerSec)
	}
	if sm.Util < 0.99 || sm.Util > 1.01 {
		t.Fatalf("util = %v, want ~1", sm.Util)
	}
}

// TestSamplerIntervalDeltas checks that the second observation reports
// only the second interval's activity, not cumulative totals.
func TestSamplerIntervalDeltas(t *testing.T) {
	env := sim.NewEnv(1)
	res := sim.NewResource(env, "srv", 1)
	sp := NewSampler("", time.Second)
	stations := []Station{{Name: "srv", Res: res}}
	env.Go("load", func(p *sim.Proc) {
		// Busy through the first second only.
		for i := 0; i < 5; i++ {
			res.Use(p, 200*time.Millisecond)
		}
	})
	env.Go("obs", func(p *sim.Proc) {
		p.Sleep(time.Second)
		sp.Observe(env.Now(), stations)
		p.Sleep(time.Second)
		sp.Observe(env.Now(), stations)
	})
	env.Run()
	samples := sp.samples
	if len(samples) != 2 {
		t.Fatalf("samples = %d", len(samples))
	}
	if samples[0].OpsPerSec != 5 {
		t.Fatalf("first interval ops/s = %v", samples[0].OpsPerSec)
	}
	if samples[1].OpsPerSec != 0 || samples[1].Util != 0 {
		t.Fatalf("idle interval reported activity: %+v", samples[1])
	}
}

// TestSamplerRejectRate verifies limiter refusals surface as rejects/s.
func TestSamplerRejectRate(t *testing.T) {
	tb := storecommon.NewRateLimiter(1, 1)
	env := sim.NewEnv(1)
	res := sim.NewResource(env, "srv", 1)
	sp := NewSampler("", time.Second)
	// 3 instantaneous requests against a 1-token bucket: 2 rejected.
	for i := 0; i < 3; i++ {
		tb.Allow(0, 1)
	}
	sp.Observe(time.Second, []Station{{Name: "srv", Res: res, Limiter: tb}})
	samples := sp.samples
	if samples[0].RejectsPerSec != 2 {
		t.Fatalf("rejects/s = %v, want 2", samples[0].RejectsPerSec)
	}
}

// TestSamplerRejectCounterRestart verifies that a limiter recreated
// between observations (idle-evicted from a LimiterPool) does not
// underflow the reject delta: the restarted counter is attributed to the
// current interval as-is.
func TestSamplerRejectCounterRestart(t *testing.T) {
	env := sim.NewEnv(1)
	res := sim.NewResource(env, "srv", 1)
	sp := NewSampler("", time.Second)
	tb := storecommon.NewRateLimiter(1, 1)
	for i := 0; i < 6; i++ {
		tb.Allow(0, 1) // 5 rejects
	}
	sp.Observe(time.Second, []Station{{Name: "srv", Res: res, Limiter: tb}})
	fresh := storecommon.NewRateLimiter(1, 1)
	fresh.Allow(time.Second, 1)
	fresh.Allow(time.Second, 1) // 1 reject, below the previous counter
	sp.Observe(2*time.Second, []Station{{Name: "srv", Res: res, Limiter: fresh}})
	samples := sp.samples
	if got := samples[1].RejectsPerSec; got != 1 {
		t.Fatalf("rejects/s after limiter restart = %v, want 1 (no underflow)", got)
	}
}

// TestWatchStopsWhenAlone runs the sampler as a process and checks it
// neither deadlocks the run nor outlives the workload by more than a tick.
func TestWatchStopsWhenAlone(t *testing.T) {
	env := sim.NewEnv(1)
	res := sim.NewResource(env, "srv", 1)
	sp := NewSampler("", 250*time.Millisecond)
	sp.Watch(env, func() []Station { return []Station{{Name: "srv", Res: res}} })
	env.Go("load", func(p *sim.Proc) {
		for i := 0; i < 4; i++ {
			res.Use(p, 250*time.Millisecond)
		}
	})
	env.Run() // must terminate
	if got := env.Now(); got > 1250*time.Millisecond {
		t.Fatalf("sampler kept the run alive until %v", got)
	}
	if len(sp.samples) == 0 {
		t.Fatal("no samples collected")
	}
}

func TestRenderTopRanksAndElides(t *testing.T) {
	sp := NewSampler("lbl", time.Second)
	sp.samples = []Sample{
		{At: time.Second, Station: "cold", Capacity: 1},
		{At: time.Second, Station: "hot", Capacity: 1, QueueLen: 9, RejectsPerSec: 50},
	}
	out := sp.RenderTop(1)
	if !strings.Contains(out, "hot") {
		t.Fatalf("hottest station missing:\n%s", out)
	}
	if strings.Contains(out, "station cold") {
		t.Fatalf("elided station rendered:\n%s", out)
	}
	if !strings.Contains(out, "1 less-contended") {
		t.Fatalf("elision note missing:\n%s", out)
	}
	if !strings.Contains(out, "lbl") {
		t.Fatalf("label missing:\n%s", out)
	}
	if got := NewSampler("", 0).RenderTop(0); !strings.Contains(got, "no telemetry samples") {
		t.Fatalf("empty render = %q", got)
	}
}

func TestWriteJSONL(t *testing.T) {
	sp := NewSampler("fig6/w=32", time.Second)
	sp.samples = []Sample{{At: time.Second, Station: "q0", QueueLen: 3, Capacity: 1, OpsPerSec: 500}}
	var buf bytes.Buffer
	if err := sp.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	var rec struct {
		Label     string  `json:"label"`
		AtNs      int64   `json:"at_ns"`
		Station   string  `json:"station"`
		QueueLen  int     `json:"queue_len"`
		OpsPerSec float64 `json:"ops_per_sec"`
	}
	if err := json.Unmarshal(buf.Bytes(), &rec); err != nil {
		t.Fatalf("not JSON: %v\n%s", err, buf.String())
	}
	if rec.Label != "fig6/w=32" || rec.AtNs != int64(time.Second) || rec.Station != "q0" ||
		rec.QueueLen != 3 || rec.OpsPerSec != 500 {
		t.Fatalf("record = %+v", rec)
	}
}
