package driver

import (
	"bytes"
	"encoding/json"
	"go/token"
	"io"
	"strings"
	"testing"

	"azurebench/internal/analysis"
)

func sampleFindings() []finding {
	return []finding{
		{
			diag: analysis.Diagnostic{
				Analyzer: "walltime",
				Message:  "time.Now reads the wall clock in simulation-facing package sim",
				Fix:      &analysis.SuggestedFix{Message: "use the clock"},
			},
			pos: token.Position{Filename: "internal/sim/sim.go", Line: 42, Column: 7},
		},
		{
			diag: analysis.Diagnostic{
				Analyzer: "hotalloc",
				Message:  "fmt.Sprintf allocates on every loop iteration in hot-path package core",
			},
			pos: token.Position{Filename: "internal/core/bench.go", Line: 7, Column: 3},
		},
	}
}

// TestSARIFStructure validates the -sarif output against the shape the
// SARIF 2.1.0 spec (and GitHub code scanning) requires: version and
// $schema, a named tool driver whose rules cover every result's ruleId,
// and per-result message text and physical location.
func TestSARIFStructure(t *testing.T) {
	var buf bytes.Buffer
	if err := writeSARIF(&buf, sampleFindings()); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("SARIF output is not valid JSON: %v", err)
	}
	if v := doc["version"]; v != "2.1.0" {
		t.Errorf("version = %v, want 2.1.0", v)
	}
	if s, _ := doc["$schema"].(string); !strings.Contains(s, "sarif-2.1.0") {
		t.Errorf("$schema = %q, want a sarif-2.1.0 schema reference", s)
	}
	runs, ok := doc["runs"].([]any)
	if !ok || len(runs) != 1 {
		t.Fatalf("runs = %v, want exactly one run", doc["runs"])
	}
	run := runs[0].(map[string]any)
	drv := run["tool"].(map[string]any)["driver"].(map[string]any)
	if drv["name"] != "azlint" {
		t.Errorf("tool.driver.name = %v", drv["name"])
	}
	ruleIDs := map[string]bool{}
	for _, r := range drv["rules"].([]any) {
		rule := r.(map[string]any)
		id, _ := rule["id"].(string)
		if id == "" {
			t.Error("rule with empty id")
		}
		if desc := rule["shortDescription"].(map[string]any); desc["text"] == "" {
			t.Errorf("rule %s has no shortDescription text", id)
		}
		ruleIDs[id] = true
	}
	for _, a := range analysis.All() {
		if !ruleIDs[a.Name] {
			t.Errorf("analyzer %s missing from SARIF rules", a.Name)
		}
	}

	results, ok := run["results"].([]any)
	if !ok || len(results) != 2 {
		t.Fatalf("results = %v, want 2", run["results"])
	}
	for i, r := range results {
		res := r.(map[string]any)
		id, _ := res["ruleId"].(string)
		if !ruleIDs[id] {
			t.Errorf("result %d ruleId %q not declared in rules", i, id)
		}
		if msg := res["message"].(map[string]any); msg["text"] == "" {
			t.Errorf("result %d has empty message text", i)
		}
		locs, ok := res["locations"].([]any)
		if !ok || len(locs) != 1 {
			t.Fatalf("result %d locations = %v", i, res["locations"])
		}
		phys := locs[0].(map[string]any)["physicalLocation"].(map[string]any)
		uri, _ := phys["artifactLocation"].(map[string]any)["uri"].(string)
		if uri == "" || strings.Contains(uri, "\\") {
			t.Errorf("result %d artifact uri = %q, want non-empty forward-slash path", i, uri)
		}
		if line := phys["region"].(map[string]any)["startLine"].(float64); line < 1 {
			t.Errorf("result %d startLine = %v", i, line)
		}
	}

	// The emitter must be deterministic: identical findings, identical
	// bytes (the double-run digest property, applied to lint output).
	var buf2 bytes.Buffer
	if err := writeSARIF(&buf2, sampleFindings()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Error("two writeSARIF runs over identical findings differ")
	}
}

func TestJSONOutput(t *testing.T) {
	var buf bytes.Buffer
	if err := writeJSON(&buf, sampleFindings()); err != nil {
		t.Fatal(err)
	}
	var out []jsonFinding
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("-json output is not valid JSON: %v", err)
	}
	if len(out) != 2 {
		t.Fatalf("got %d findings, want 2", len(out))
	}
	if out[0].Analyzer != "walltime" || !out[0].Fixable {
		t.Errorf("finding 0 = %+v", out[0])
	}
	if out[1].Analyzer != "hotalloc" || out[1].Fixable {
		t.Errorf("finding 1 = %+v", out[1])
	}

	var empty bytes.Buffer
	if err := writeJSON(&empty, nil); err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimSpace(empty.String()); got != "[]" {
		t.Errorf("empty findings rendered %q, want []", got)
	}
}

func TestDebtReport(t *testing.T) {
	allows := []analysis.Allow{
		{Analyzer: "hotalloc"},
		{Analyzer: "walltime"},
		{Analyzer: "hotalloc"},
	}
	var buf bytes.Buffer
	printDebt(&buf, allows)
	want := "analyzer         allows\n" +
		"hotalloc              2\n" +
		"walltime              1\n" +
		"total                 3\n"
	if buf.String() != want {
		t.Errorf("debt report =\n%s\nwant\n%s", buf.String(), want)
	}
}

// TestStandaloneJSONClean drives the real path end to end (go list,
// export-data import, facts, output emitters) over a package known to be
// clean, asserting exit 0 and an empty JSON findings array.
func TestStandaloneJSONClean(t *testing.T) {
	if testing.Short() {
		t.Skip("shells out to the go command")
	}
	var out bytes.Buffer
	code := Main([]string{"-json", "azurebench/internal/vclock"}, &out, io.Discard)
	if code != 0 {
		t.Fatalf("exit %d, output:\n%s", code, out.String())
	}
	if got := strings.TrimSpace(out.String()); got != "[]" {
		t.Errorf("findings = %q, want []", got)
	}
}
