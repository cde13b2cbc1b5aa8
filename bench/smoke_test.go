package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func smokeRun(t *testing.T, workload string, traced bool, dir string) (result, []string) {
	t.Helper()
	var lines []string
	res, err := runWorkload(runOptions{
		workload: workload, seed: 3, seconds: 0.3, traced: traced,
		sz: smokeSizes(), outDir: dir, replays: false,
	}, func(format string, args ...any) { lines = append(lines, format) })
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s: correct=%v attempted=%d failed=%d", workload, res.Correct, res.Attempted, res.Failed)
	}
	return res, lines
}

// Every workload runs at smoke scale, untraced and traced, prints exactly
// the metrics BENCHMARK.json lists for that mode, checks its outputs and
// reports no failed operation.
func TestSmokeAllWorkloads(t *testing.T) {
	for _, w := range workloads {
		res, _ := smokeRun(t, w.name, false, "")
		if len(res.Metrics) != len(endToEnd) {
			t.Errorf("%s untraced printed %d metrics, want the %d end-to-end ones", w.name, len(res.Metrics), len(endToEnd))
		}
		for _, m := range endToEnd {
			got, ok := res.Metrics[m[0]]
			if !ok || got.Value <= 0 || got.Unit != m[1] {
				t.Errorf("%s: end-to-end metric %s = %+v (present %v), want a positive value in %s", w.name, m[0], got, ok, m[1])
			}
		}

		dir := t.TempDir()
		res, _ = smokeRun(t, w.name, true, dir)
		if len(res.Metrics) != len(perLayer) {
			t.Errorf("%s traced printed %d metrics, want the %d per-layer ones", w.name, len(res.Metrics), len(perLayer))
		}
		for _, m := range perLayer {
			if got, ok := res.Metrics[m[0]]; !ok || got.Unit != m[1] {
				t.Errorf("%s: per-layer metric %s = %+v (present %v), want unit %s", w.name, m[0], got, ok, m[1])
			}
		}
		checkSpanFile(t, filepath.Join(dir, "spans-"+w.name+"-seed3.jsonl"))
	}
}

// checkSpanFile verifies the span file: per operation the self times sum
// to the root span, the client-observed duration.
func checkSpanFile(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	type line struct {
		Op      int64  `json:"op"`
		Parent  string `json:"parent"`
		Layer   string `json:"layer"`
		StartNS int64  `json:"start_ns"`
		EndNS   int64  `json:"end_ns"`
		SelfNS  int64  `json:"self_ns"`
	}
	root, self, layers := map[int64]int64{}, map[int64]int64{}, map[string]bool{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var l line
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if l.EndNS < l.StartNS || l.SelfNS < 0 {
			t.Fatalf("%s: span with negative duration or self time: %s", path, sc.Text())
		}
		if l.Parent == "" {
			root[l.Op] = l.EndNS - l.StartNS
		}
		self[l.Op] += l.SelfNS
		layers[l.Layer] = true
	}
	if len(root) == 0 {
		t.Fatalf("%s: no spans", path)
	}
	for op, d := range root {
		if self[op] != d {
			t.Errorf("%s: operation %d: self times sum to %d ns, root span is %d ns", path, op, self[op], d)
		}
	}
	if strings.Contains(path, "live-") {
		for _, l := range []string{layerLoadgen, layerSDK, layerTransport, layerREST} {
			if !layers[l] {
				t.Errorf("%s: no %s spans", path, l)
			}
		}
	}
}

// The replays set every metric they are listed for, and between them and
// the four traced workloads every per-layer metric is produced by someone.
func TestEveryPerLayerMetricHasASource(t *testing.T) {
	replayShrink = 200
	defer func() { replayShrink = 1 }()
	produced := metrics{}
	if err := runReplays(1, produced, func(string, ...any) {}); err != nil {
		t.Fatal(err)
	}
	for name, m := range produced {
		if m.Value <= 0 {
			t.Errorf("replay metric %s = %v", name, m.Value)
		}
	}
	for _, w := range workloads {
		layer := metrics{}
		wl := w.make()
		if err := wl.setup(1, smokeSizes(), &tracer{clk: clock{time.Now()}, on: true}); err != nil {
			t.Fatal(err)
		}
		if _, err := wl.rep(true, func() {}); err != nil {
			t.Fatal(err)
		}
		if _, err := wl.finish(layer); err != nil {
			t.Fatal(err)
		}
		wl.close()
		for k, v := range produced {
			layer[k] = v
		}
		deriveLayerMetrics(w.name, layer)
		for k, v := range layer {
			produced[k] = v
		}
	}
	// runWorkload itself sets proc.*; the tail percentiles need more
	// samples than a smoke run takes (stats.go).
	elsewhere := map[string]bool{"loadgen.p99_us": true, "loadgen.p999_us": true}
	for _, m := range perLayer {
		if _, ok := produced[m[0]]; !ok && !strings.HasPrefix(m[0], "proc.") && !elsewhere[m[0]] {
			t.Errorf("no workload and no replay produces %s", m[0])
		}
	}
	listed := map[string]bool{}
	for _, m := range perLayer {
		listed[m[0]] = true
	}
	for name := range produced {
		if !listed[name] {
			t.Errorf("%s is produced but not listed in perLayer, so never printed", name)
		}
	}
}

// BENCHMARK.json at the root of the repository and the harness must name
// the same workloads and metrics.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	bf, err := readBenchmarkFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the harness %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the harness", i, w.Name, workloads[i].name)
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the harness %d", len(bf.EndToEnd), len(endToEnd))
	}
	for i, m := range bf.EndToEnd {
		if m.Name != endToEnd[i][0] || m.Unit != endToEnd[i][1] {
			t.Errorf("end-to-end metric %d is %s [%s] in BENCHMARK.json, %s [%s] in the harness", i, m.Name, m.Unit, endToEnd[i][0], endToEnd[i][1])
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the harness %d", len(bf.PerLayer), len(perLayer))
	}
	for i, m := range bf.PerLayer {
		if m.Name != perLayer[i][0] || m.Unit != perLayer[i][1] {
			t.Errorf("per-layer metric %d is %s [%s] in BENCHMARK.json, %s [%s] in the harness", i, m.Name, m.Unit, perLayer[i][0], perLayer[i][1])
		}
	}
}
