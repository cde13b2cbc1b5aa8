package scenario

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"azurebench/internal/core"
	"azurebench/internal/sim"
	"azurebench/internal/trace"
)

// tinySpec exercises every service, all three arrival processes and all
// three key distributions in a few virtual seconds.
const tinySpec = `
name: tiny
title: Engine smoke scenario
driver: workload
setup:
  tables:
    - name: usertable
      keys: 32
      entity_kb: 1
  queues:
    - name: workq
      preload: 8
  containers:
    - name: blobs
      blobs: 8
      blob_kb: 4
phases:
  - name: warm
    duration: 3s
    clients: 4
    arrival:
      kind: closed
      think: 50ms
    ops:
      table_get: 70
      table_update: 20
      table_rmw: 10
    keys:
      dist: zipfian
      theta: 0.9
    target:
      table: usertable
  - name: open
    duration: 3s
    clients: 2
    arrival:
      kind: poisson
      rate: 40
      diurnal:
        period: 2s
        amplitude: 0.5
    ops:
      queue_put: 40
      queue_get: 30
      queue_delete: 30
    target:
      queue: workq
  - name: spikes
    duration: 3s
    clients: 2
    arrival:
      kind: burst
      burst:
        size: 10
        every: 1s
    ops:
      blob_put: 30
      blob_get: 70
    keys:
      dist: hotflip
      flip_at: 1500ms
    target:
      container: blobs
    payload_kb: 4
slo:
  - metric: warm.ops
    op: ">"
    value: 0
  - metric: open.errors
    op: "=="
    value: 0
  - metric: total.goodput
    op: ">"
    value: 1
`

func tinySuite(t *testing.T, seed int64) *core.Suite {
	t.Helper()
	cfg := core.QuickConfig()
	cfg.Seed = seed
	cfg.TraceOps = true
	return core.NewSuite(cfg)
}

func runTiny(t *testing.T, seed int64) *Result {
	t.Helper()
	sp, err := Parse([]byte(tinySpec))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	res, err := Run(tinySuite(t, seed), sp, Options{})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return res
}

func TestWorkloadEngineRuns(t *testing.T) {
	res := runTiny(t, 42)
	if res.Report == nil || len(res.Report.Figures) != 2 {
		t.Fatalf("want 2 figures, got %+v", res.Report)
	}
	for _, key := range []string{
		"warm.ops", "warm.p95_ms", "warm.goodput", "warm.ops.table_get",
		"open.ops", "open.ops.queue_put", "spikes.ops", "spikes.ops.blob_get",
		"total.ops", "total.goodput", "total.retries",
		"fig1.warm.count",
	} {
		if _, ok := res.Metrics[key]; !ok {
			t.Errorf("metric %q missing\nhave:\n%s", key, RenderMetrics(res.Metrics))
		}
	}
	if res.Metrics["warm.ops"] <= 0 || res.Metrics["open.ops"] <= 0 || res.Metrics["spikes.ops"] <= 0 {
		t.Fatalf("phases did no work:\n%s", RenderMetrics(res.Metrics))
	}
	if !res.Passed() {
		t.Fatalf("SLOs failed:\n%s", res.RenderSLO())
	}
	if !strings.Contains(res.RenderSLO(), "SLO PASS warm.ops > 0") {
		t.Errorf("unexpected SLO rendering:\n%s", res.RenderSLO())
	}
}

func TestWorkloadEngineDeterministic(t *testing.T) {
	a := runTiny(t, 7)
	b := runTiny(t, 7)
	if da, db := a.Report.CSVDigest(), b.Report.CSVDigest(); da != db {
		t.Errorf("same seed, different digests: %s vs %s", da, db)
	}
	if RenderMetrics(a.Metrics) != RenderMetrics(b.Metrics) {
		t.Errorf("same seed, different metrics:\n%s\nvs\n%s",
			RenderMetrics(a.Metrics), RenderMetrics(b.Metrics))
	}
	c := runTiny(t, 8)
	if a.Report.CSVDigest() == c.Report.CSVDigest() {
		t.Error("different seeds produced identical digests")
	}
}

func TestQuickScalesPhases(t *testing.T) {
	sp, err := Parse([]byte(tinySpec))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	res, err := Run(tinySuite(t, 42), sp, Options{Quick: true})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	// 3s phases shrink to 1s (floor): the whole run stays under the
	// full-scale 9 virtual seconds.
	full := runTiny(t, 42)
	if res.Metrics["total.ops"] >= full.Metrics["total.ops"] {
		t.Errorf("quick run did at least as much work as full run (%v >= %v)",
			res.Metrics["total.ops"], full.Metrics["total.ops"])
	}
}

func TestSLOFailureDetected(t *testing.T) {
	src := strings.Replace(tinySpec, "metric: warm.ops\n    op: \">\"\n    value: 0",
		"metric: warm.ops\n    op: \"<\"\n    value: 0", 1)
	sp, err := Parse([]byte(src))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	res, err := Run(tinySuite(t, 42), sp, Options{})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.Passed() {
		t.Fatal("impossible SLO passed")
	}
	if !strings.Contains(res.RenderSLO(), "SLO FAIL warm.ops < 0") {
		t.Errorf("unexpected SLO rendering:\n%s", res.RenderSLO())
	}
}

func TestSLOMissingMetricFails(t *testing.T) {
	sp, err := Parse([]byte(tinySpec))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	sp.SLOs = []Assertion{{Metric: "warm.p95_mss", Op: "<=", Value: 1e9}}
	res, err := Run(tinySuite(t, 42), sp, Options{})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.Passed() {
		t.Fatal("assertion on a missing metric passed")
	}
	if out := res.RenderSLO(); !strings.Contains(out, "metric not produced") || !strings.Contains(out, "warm.p95_ms") {
		t.Errorf("missing-metric rendering should suggest near names:\n%s", out)
	}
}

func TestTraceSpecFieldAndStageMetrics(t *testing.T) {
	src := strings.Replace(tinySpec, "driver: workload", "driver: workload\ntrace: true", 1)
	sp, err := Parse([]byte(src))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if !sp.Trace {
		t.Fatal("trace: true not decoded")
	}
	// Apply must switch tracing on even when the base config has it off.
	cfg := core.QuickConfig()
	cfg.Seed = 42
	sp.Apply(&cfg)
	if !cfg.TraceOps {
		t.Fatal("Apply did not set TraceOps")
	}
	res, err := Run(core.NewSuite(cfg), sp, Options{})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, key := range []string{
		"trace.ops", "trace.errors", "trace.orphans",
		"trace.stage.server.p50_ms", "trace.stage.server.p99_ms",
		"trace.stage.server.total_ms",
	} {
		if _, ok := res.Metrics[key]; !ok {
			t.Errorf("metric %q missing", key)
		}
	}
	if res.Metrics["trace.ops"] <= 0 {
		t.Fatalf("trace.ops = %v, want > 0", res.Metrics["trace.ops"])
	}
	if res.Metrics["trace.orphans"] != 0 {
		t.Fatalf("trace.orphans = %v, want 0 (no eviction in a quick run)", res.Metrics["trace.orphans"])
	}
	// A stage-percentile SLO must be evaluable.
	sp.SLOs = []Assertion{{Metric: "trace.stage.server.p99_ms", Op: ">", Value: 0}}
	verdicts := EvaluateSLOs(sp.SLOs, res.Metrics)
	if len(verdicts) != 1 || !verdicts[0].Pass {
		t.Fatalf("stage SLO verdicts = %+v", verdicts)
	}
}

// TestPercentileNearestRank: the trace.stage.<stage>.pNN_ms SLO metrics
// rank by ceil(p·n/100) like every other percentile a report prints, not
// by the floor (which made the p50 of three samples the minimum).
func TestPercentileNearestRank(t *testing.T) {
	for _, n := range []int{1, 3, 10, 100} {
		l := trace.New(0)
		for i := 1; i <= n; i++ { // op i spends i ms in the server stage
			d := time.Duration(i) * time.Millisecond
			l.Record(trace.Op{
				Start: d, Duration: d, Service: "table", Name: "Get",
				Spans: []trace.Span{{Stage: trace.StageServer, Dur: d}},
			})
		}
		m := traceMetrics(l)
		for _, p := range []int{50, 95, 99} {
			key := fmt.Sprintf("trace.stage.server.p%d_ms", p)
			if want := float64((p*n + 99) / 100); m[key] != want {
				t.Errorf("n=%d: %s = %v, want %v", n, key, m[key], want)
			}
		}
	}
}

// TestClosedLoopReadAllocatesOnlyInTheEngine: one turn of a closed-loop
// worker on a read-only phase, end to end — the draw of op and key, the
// call, cloud.Client's request and its retries, the miss classification,
// the tally, the think time — allocates nothing, and tablestore.Get hands
// out the stored row without a copy.
func TestClosedLoopReadAllocatesOnlyInTheEngine(t *testing.T) {
	sp, err := Parse([]byte(strings.Replace(tinySpec,
		"table_get: 70\n      table_update: 20\n      table_rmw: 10", "table_get: 1", 1)))
	if err != nil {
		t.Fatal(err)
	}
	rt, dial, _ := SimSubstrate(core.NewSuite(core.QuickConfig()))
	e := &engine{sp: sp, rt: rt, dial: dial, seed: 1}
	if err := e.setup(); err != nil {
		t.Fatal(err)
	}
	ps := e.newPhaseStats(sp.Phases[0])
	if len(ps.ops) != 1 || ps.ops[0].code != opTableGet || len(e.keyNames) != 32 {
		t.Fatalf("phase resolved to %+v with %d key names", ps.ops, len(e.keyNames))
	}
	tl := newTally(&ps.phase)
	rt.Go("worker", &worker{ps: ps, t: &tl, name: "worker", end: time.Hour,
		rng: sim.NewRand(1), ch: newChooser(ps.phase.Keys, sim.NewRand(2), ps.start),
		call: call{e: e, st: &clientState{store: dial("worker")}, ph: &ps.phase}})
	env := rt.(simRuntime).env
	turn := func() { // runs the kernel until one more turn is recorded
		for n := tl.completed; tl.completed == n; {
			env.RunUntil(env.Now() + 100*time.Microsecond)
		}
	}
	for i := 0; i < 1100; i++ { // until the tally's sample slice has a capacity that lasts
		turn()
	}
	got := testing.AllocsPerRun(200, turn)
	if tl.completed != 1100+201 || tl.misses != 0 || ps.errors != 0 {
		t.Errorf("tally %+v", tl)
	}
	if got > 0 {
		t.Errorf("%.0f allocations per closed-loop table_get, ceiling 0", got)
	}
}

// TestPhasesSwitchPerProcessNotPerOp: a closed-loop phase and two open
// arrival phases run hundreds of ops, their requests' retries included,
// and the kernel switches to a process no more often than there are
// long-lived processes (setup, the closed-loop clients, the dispatchers):
// every driver process is one with no coroutine.
func TestPhasesSwitchPerProcessNotPerOp(t *testing.T) {
	res := runTiny(t, 1)
	k, ops := res.Report.Kernel, res.Metrics["total.ops"]
	if processes := uint64(1 + 4 + 2); k.Switches > processes || ops < 300 {
		t.Errorf("%d switches for %.0f ops over %d events; want at most %d", k.Switches, ops, k.Events, processes)
	}
}
