package scenario

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"azurebench/internal/snapshot"
)

// ckptSpec is a two-phase warm/measure scenario with a checkpoint at the
// phase boundary; the file and restore mode are spliced in per test.
const ckptSpec = `
name: ckpt
title: Checkpoint smoke scenario
driver: workload
setup:
  tables:
    - name: usertable
      keys: 64
      entity_kb: 1
  queues:
    - name: workq
      preload: 16
checkpoint:
%s
phases:
  - name: warm
    duration: 2s
    clients: 4
    arrival:
      kind: closed
      think: 20ms
    ops:
      table_insert: 50
      table_update: 50
    keys:
      dist: zipfian
      theta: 0.9
    target:
      table: usertable
  - name: measure
    duration: 2s
    clients: 4
    arrival:
      kind: closed
      think: 20ms
    ops:
      table_get: 60
      table_update: 20
      queue_put: 10
      queue_get: 5
      queue_delete: 5
    keys:
      dist: zipfian
      theta: 0.9
    target:
      table: usertable
      queue: workq
`

func runCkptSpec(t *testing.T, stanza string, seed int64) *Result {
	t.Helper()
	sp, err := Parse([]byte(fmt.Sprintf(ckptSpec, stanza)))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	res, err := Run(tinySuite(t, seed), sp, Options{})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return res
}

// metricsWithPrefix filters the flat map down to keys under prefix,
// stripping it — the comparable view of one phase's outcome.
func metricsWithPrefix(m map[string]float64, prefix string) map[string]float64 {
	out := map[string]float64{}
	for k, v := range m {
		if strings.HasPrefix(k, prefix) {
			out[strings.TrimPrefix(k, prefix)] = v
		}
	}
	return out
}

// TestScenarioWarmStartEquivalence is the quiescent-restore proof: a cold
// run that captures at the warm/measure boundary and a warm start that
// loads the written snapshot must produce the identical measure phase —
// every metric, exactly.
func TestScenarioWarmStartEquivalence(t *testing.T) {
	file := filepath.Join(t.TempDir(), "ckpt.azsnap")
	stanza := fmt.Sprintf("  after: warm\n  file: %s\n  restore: auto", file)

	cold := runCkptSpec(t, stanza, 42)
	if _, err := os.Stat(file); err != nil {
		t.Fatalf("cold run wrote no snapshot: %v", err)
	}
	warm := runCkptSpec(t, stanza, 42)

	if warm.Metrics["warm.ops"] != 0 {
		t.Errorf("warm start re-ran the warm phase (warm.ops = %v)", warm.Metrics["warm.ops"])
	}
	cm := metricsWithPrefix(cold.Metrics, "measure.")
	wm := metricsWithPrefix(warm.Metrics, "measure.")
	if len(cm) == 0 {
		t.Fatal("no measure metrics")
	}
	if RenderMetrics(cm) != RenderMetrics(wm) {
		t.Errorf("measure phase diverged between cold run and warm start:\ncold:\n%s\nwarm:\n%s",
			RenderMetrics(cm), RenderMetrics(wm))
	}
}

// TestScenarioCheckpointMetaGolden pins the bytes of the meta section of
// the warm-start checkpoint above: the identity a warm start checks
// before it loads. The loader reads its fields and nothing else, so this
// is where a field that differs between two captures of the same run
// would show.
func TestScenarioCheckpointMetaGolden(t *testing.T) {
	file := filepath.Join(t.TempDir(), "ckpt.azsnap")
	runCkptSpec(t, fmt.Sprintf("  after: warm\n  file: %s", file), 42)
	f, err := snapshot.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	meta := f.Section(scenarioMetaSection)
	if meta == nil {
		t.Fatal("no meta section")
	}
	got := fmt.Sprintf("ckpt after=warm meta len=%d sha256=%x\n", len(meta.Payload), sha256.Sum256(meta.Payload))

	const golden = "testdata/checkpoint-meta.golden"
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("checkpoint meta drifted from %s\ngot:  %swant: %s", golden, got, want)
	}
}

// TestScenarioForkSeedMatchesMainline forks the measure phase from the
// in-memory snapshot under the mainline's own seed: loading the snapshot
// into a fresh cloud must reproduce the live continuation exactly, so
// fork42.measure.* == measure.*.
func TestScenarioForkSeedMatchesMainline(t *testing.T) {
	res := runCkptSpec(t, "  after: warm\n  fork_seeds: [42, 1001]", 42)
	mm := metricsWithPrefix(res.Metrics, "measure.")
	fm := metricsWithPrefix(res.Metrics, "fork42.measure.")
	if len(mm) == 0 || len(fm) == 0 {
		t.Fatalf("missing mainline or fork metrics:\n%s", RenderMetrics(res.Metrics))
	}
	if RenderMetrics(mm) != RenderMetrics(fm) {
		t.Errorf("same-seed fork diverged from the live continuation:\nmainline:\n%s\nfork:\n%s",
			RenderMetrics(mm), RenderMetrics(fm))
	}
	om := metricsWithPrefix(res.Metrics, "fork1001.measure.")
	if len(om) == 0 {
		t.Fatalf("fork1001 metrics missing:\n%s", RenderMetrics(res.Metrics))
	}
	if RenderMetrics(om) == RenderMetrics(mm) {
		t.Error("different fork seed reproduced the mainline exactly — seed is ignored")
	}
}

// preemptSpec evicts two of four closed-loop workers mid-phase.
const preemptSpec = `
name: preempt
title: Preemption smoke scenario
driver: workload
setup:
  queues:
    - name: workq
      preload: 32
      message_kb: 2
faults:
  preemptions:
    - worker: 0
      at: 400ms
      restore_after: 200ms
    - worker: 2
      at: 800ms
      restore_after: 300ms
phases:
  - name: steady
    duration: 3s
    clients: 4
    arrival:
      kind: closed
      think: 10ms
    ops:
      queue_put: 40
      queue_get: 30
      queue_delete: 30
    target:
      queue: workq
    payload_kb: 2
`

func runPreempt(t *testing.T, seed int64) *Result {
	t.Helper()
	sp, err := Parse([]byte(preemptSpec))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	res, err := Run(tinySuite(t, seed), sp, Options{})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return res
}

// TestScenarioPreemption checks the spot-eviction fault end to end: both
// scheduled evictions fire, the successors finish the phase without
// errors, and the whole composition stays deterministic.
func TestScenarioPreemption(t *testing.T) {
	a := runPreempt(t, 7)
	if got := a.Metrics["steady.preemptions"]; got != 2 {
		t.Fatalf("want 2 preemptions, got %v", got)
	}
	if a.Metrics["steady.errors"] != 0 {
		t.Errorf("preempted workers surfaced errors:\n%s", RenderMetrics(a.Metrics))
	}
	if a.Metrics["steady.ops"] <= 0 {
		t.Fatal("no work completed")
	}
	b := runPreempt(t, 7)
	if a.Report.CSVDigest() != b.Report.CSVDigest() || RenderMetrics(a.Metrics) != RenderMetrics(b.Metrics) {
		t.Error("preemption runs are not deterministic under the same seed")
	}
}

// TestCheckpointSpecValidation locks in the stanza's decode-time rules.
func TestCheckpointSpecValidation(t *testing.T) {
	cases := []struct {
		stanza, want string
	}{
		{"  after: nosuch", `checkpoint.after "nosuch" does not name a phase`},
		{"  after: measure\n  fork_seeds: [1]", "is the last phase"},
		{"  after: warm\n  restore: auto", `restore "auto" requires checkpoint.file`},
		{"  after: warm\n  restore: sometimes", "must be auto, always or never"},
		{"  after: warm\n  fork_seeds: [5, 5]", "duplicate seed"},
	}
	for _, tc := range cases {
		_, err := Parse([]byte(fmt.Sprintf(ckptSpec, tc.stanza)))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("stanza %q: want error containing %q, got %v", tc.stanza, tc.want, err)
		}
	}
	bad := strings.Replace(preemptSpec, "at: 400ms", "at: 0s", 1)
	if _, err := Parse([]byte(bad)); err == nil || !strings.Contains(err.Error(), "at must be positive") {
		t.Errorf("zero preemption time accepted: %v", err)
	}
}
