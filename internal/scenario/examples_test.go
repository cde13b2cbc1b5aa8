package scenario

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"azurebench/internal/core"
)

const examplesDir = "../../examples/scenarios"

// traceDigest exports the suite's op trace as JSONL and hashes it.
func traceDigest(t *testing.T, s *core.Suite) string {
	t.Helper()
	var buf bytes.Buffer
	if err := s.TraceLog().WriteJSONL(&buf); err != nil {
		t.Fatalf("exporting trace: %v", err)
	}
	h := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(h[:])
}

// TestExperimentScenarioByteIdentical is the tentpole equivalence
// guarantee: an experiment-driver scenario file with no config/params
// overrides produces byte-identical CSV figures AND byte-identical op
// traces to running the hard-coded experiment directly. The declarative
// layer adds zero noise.
func TestExperimentScenarioByteIdentical(t *testing.T) {
	for _, id := range []string{"faults", "hotspot"} {
		t.Run(id, func(t *testing.T) {
			sp, err := Load(filepath.Join(examplesDir, id+".yaml"))
			if err != nil {
				t.Fatalf("load: %v", err)
			}
			if sp.Driver != "experiment" || sp.Experiment != id {
				t.Fatalf("expected an experiment-driver twin of %q, got %+v", id, sp)
			}

			base := core.QuickConfig()
			base.TraceOps = true

			// Declarative run.
			cfg := base
			sp.Apply(&cfg)
			ssuite := core.NewSuite(cfg)
			res, err := Run(ssuite, sp, Options{Quick: true})
			if err != nil {
				t.Fatalf("scenario run: %v", err)
			}

			// Hard-coded run.
			exp, ok := core.Lookup(id)
			if !ok {
				t.Fatalf("unknown experiment %q", id)
			}
			hsuite := core.NewSuite(base)
			rep := exp.Run(hsuite)

			if got, want := res.Report.CSVDigest(), rep.CSVDigest(); got != want {
				t.Errorf("CSV digest mismatch: scenario %s vs experiment %s", got, want)
			}
			if got, want := traceDigest(t, ssuite), traceDigest(t, hsuite); got != want {
				t.Errorf("trace digest mismatch: scenario %s vs experiment %s", got, want)
			}
		})
	}
}

// exampleDigests reads testdata/digests-examples.golden: one
// "<file> <sha256>" line per example scenario, the CSV digests
// `azurebench -quick -digest -scenario-dir examples/scenarios` prints.
func exampleDigests(t *testing.T) map[string]string {
	t.Helper()
	data, err := os.ReadFile("testdata/digests-examples.golden")
	if err != nil {
		t.Fatal(err)
	}
	golden := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		file, sum, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("malformed golden line %q", line)
		}
		golden[file] = sum
	}
	return golden
}

// TestExampleScenariosPassSLOs runs the shipped library end to end at
// quick scale — the same gate the CI scenario matrix applies. A new
// example with an uncalibrated SLO fails here before it flakes in CI.
// Each run's CSV digest must also equal the committed golden table: a
// behaviour-preserving change leaves the table alone, a change that means
// to move a scenario's numbers regenerates its line and says so.
func TestExampleScenariosPassSLOs(t *testing.T) {
	files, err := filepath.Glob(filepath.Join(examplesDir, "*.yaml"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no example scenarios (err=%v)", err)
	}
	if len(files) < 5 {
		t.Fatalf("scenario library shrank below the CI matrix minimum: %v", files)
	}
	golden := exampleDigests(t)
	if len(golden) != len(files) {
		t.Errorf("golden table has %d scenarios, library has %d", len(golden), len(files))
	}
	for _, file := range files {
		file := file
		t.Run(filepath.Base(file), func(t *testing.T) {
			sp, err := Load(file)
			if err != nil {
				t.Fatalf("load: %v", err)
			}
			if len(sp.SLOs) == 0 {
				t.Fatal("example scenarios must assert SLOs (they double as CI gates)")
			}
			cfg := core.QuickConfig()
			sp.Apply(&cfg)
			res, err := Run(core.NewSuite(cfg), sp, Options{Quick: true})
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if !res.Passed() {
				t.Errorf("SLO failures:\n%s", res.RenderSLO())
			}
			if got, want := res.Report.CSVDigest(), golden[filepath.Base(file)]; got != want {
				t.Errorf("CSV digest %s, golden %q", got, want)
			}
		})
	}
}
