package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"strings"
	"testing"
)

// digestRun executes a slice of the quick suite — one experiment per
// storage service, including the jittered shared queue and the
// fault-injection benchmark — with tracing on, and digests everything a
// user can export: the CSV data blocks of every figure and the JSONL
// span-level trace.
func digestRun(t *testing.T, seed int64) (csvDigest, traceDigest string) {
	t.Helper()
	cfg := tinyConfig()
	cfg.Workers = []int{1, 8}
	cfg.Seed = seed
	cfg.TraceOps = true
	s := NewSuite(cfg)

	var csv bytes.Buffer
	for _, id := range []string{"fig4", "fig7", "fig8", "faults", "hotspot", "georepl"} {
		e, ok := Lookup(id)
		if !ok {
			t.Fatalf("unknown experiment %q", id)
		}
		rep := e.Run(s)
		for _, fig := range rep.Figures {
			csv.WriteString(fig.CSV())
		}
	}
	var trace bytes.Buffer
	if err := s.TraceLog().WriteJSONL(&trace); err != nil {
		t.Fatalf("exporting trace: %v", err)
	}
	ch := sha256.Sum256(csv.Bytes())
	th := sha256.Sum256(trace.Bytes())
	return hex.EncodeToString(ch[:]), hex.EncodeToString(th[:])
}

// TestDoubleRunByteIdentical is the automated form of the PR 2 manual
// "bit-identical" check: two runs under the same seed must export
// byte-identical CSV and trace JSONL. Any wall-clock read, global rand
// draw or unsorted map iteration on the hot path breaks this.
func TestDoubleRunByteIdentical(t *testing.T) {
	csv1, trace1 := digestRun(t, 12345)
	csv2, trace2 := digestRun(t, 12345)
	if csv1 != csv2 {
		t.Errorf("CSV digests differ between identical seeds: %s vs %s", csv1, csv2)
	}
	if trace1 != trace2 {
		t.Errorf("trace JSONL digests differ between identical seeds: %s vs %s", trace1, trace2)
	}
}

// TestSeedChangesDigest guards against a silently ignored seed: a
// different seed must change the exported trace.
func TestSeedChangesDigest(t *testing.T) {
	_, trace1 := digestRun(t, 1)
	_, trace2 := digestRun(t, 2)
	if trace1 == trace2 {
		t.Error("different seeds produced byte-identical traces")
	}
}

// readGolden parses a "<id> <sha256>" per line golden file.
func readGolden(t *testing.T, path string) [][2]string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var out [][2]string
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		id, sum, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("%s: malformed line %q", path, line)
		}
		out = append(out, [2]string{id, sum})
	}
	return out
}

// TestQuickDigestsGolden is the licence to refactor as a test: the CSV
// digest of every registered experiment at QuickConfig, run in registry
// order on one shared suite (what `azurebench -quick -digest` prints),
// must equal the committed table. A behaviour-preserving change leaves
// testdata/digests-quick.golden alone; a change that means to move a
// figure regenerates it from that command and says so.
func TestQuickDigestsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all 16 experiments at quick scale")
	}
	golden := readGolden(t, "testdata/digests-quick.golden")
	exps := Experiments()
	if len(golden) != len(exps) {
		t.Fatalf("golden has %d experiments, registry has %d", len(golden), len(exps))
	}
	s := NewSuite(QuickConfig())
	for i, e := range exps {
		if golden[i][0] != e.ID {
			t.Fatalf("golden line %d is %q, registry has %q", i+1, golden[i][0], e.ID)
		}
		if got := e.Run(s).CSVDigest(); got != golden[i][1] {
			t.Errorf("%s: digest %s, golden %s", e.ID, got, golden[i][1])
		}
	}
}
