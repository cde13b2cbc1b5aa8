package driver

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"sort"

	"azurebench/internal/analysis"
)

// Minimal SARIF 2.1.0 object model — just the slice of the spec that
// GitHub code scanning consumes.

type sarifLog struct {
	Schema  string     `json:"$schema"`
	Version string     `json:"version"`
	Runs    []sarifRun `json:"runs"`
}

type sarifRun struct {
	Tool    sarifTool     `json:"tool"`
	Results []sarifResult `json:"results"`
}

type sarifTool struct {
	Driver sarifDriver `json:"driver"`
}

type sarifDriver struct {
	Name           string      `json:"name"`
	InformationURI string      `json:"informationUri,omitempty"`
	Rules          []sarifRule `json:"rules"`
}

type sarifRule struct {
	ID               string       `json:"id"`
	ShortDescription sarifMessage `json:"shortDescription"`
}

type sarifResult struct {
	RuleID    string          `json:"ruleId"`
	Level     string          `json:"level"`
	Message   sarifMessage    `json:"message"`
	Locations []sarifLocation `json:"locations"`
}

type sarifMessage struct {
	Text string `json:"text"`
}

type sarifLocation struct {
	PhysicalLocation sarifPhysicalLocation `json:"physicalLocation"`
}

type sarifPhysicalLocation struct {
	ArtifactLocation sarifArtifactLocation `json:"artifactLocation"`
	Region           sarifRegion           `json:"region"`
}

type sarifArtifactLocation struct {
	URI       string `json:"uri"`
	URIBaseID string `json:"uriBaseId,omitempty"`
}

type sarifRegion struct {
	StartLine   int `json:"startLine"`
	StartColumn int `json:"startColumn,omitempty"`
}

// sarifURI renders a finding's filename relative to the working
// directory with forward slashes, as code scanning expects.
func sarifURI(filename string) string {
	if wd, err := os.Getwd(); err == nil {
		if rel, err := filepath.Rel(wd, filename); err == nil && !filepath.IsAbs(rel) && rel != ".." && !hasDotDotPrefix(rel) {
			filename = rel
		}
	}
	return filepath.ToSlash(filename)
}

func hasDotDotPrefix(rel string) bool {
	return len(rel) >= 3 && rel[:3] == ".."+string(filepath.Separator)
}

func writeSARIF(w io.Writer, findings []finding) error {
	// Every analyzer in the suite is declared as a rule, plus the
	// "azlint" meta-rule for directive hygiene diagnostics, so ruleIds
	// always resolve.
	var rules []sarifRule
	for _, a := range analysis.All() {
		rules = append(rules, sarifRule{ID: a.Name, ShortDescription: sarifMessage{Text: a.Doc}})
	}
	rules = append(rules, sarifRule{
		ID:               "azlint",
		ShortDescription: sarifMessage{Text: "malformed or stale //azlint:allow directives"},
	})
	sort.Slice(rules, func(i, j int) bool { return rules[i].ID < rules[j].ID })

	results := make([]sarifResult, 0, len(findings))
	for _, f := range findings {
		results = append(results, sarifResult{
			RuleID:  f.diag.Analyzer,
			Level:   "error",
			Message: sarifMessage{Text: f.diag.Message},
			Locations: []sarifLocation{{
				PhysicalLocation: sarifPhysicalLocation{
					ArtifactLocation: sarifArtifactLocation{URI: sarifURI(f.pos.Filename), URIBaseID: "%SRCROOT%"},
					Region:           sarifRegion{StartLine: f.pos.Line, StartColumn: f.pos.Column},
				},
			}},
		})
	}

	log := sarifLog{
		Schema:  "https://json.schemastore.org/sarif-2.1.0.json",
		Version: "2.1.0",
		Runs: []sarifRun{{
			Tool:    sarifTool{Driver: sarifDriver{Name: "azlint", Rules: rules}},
			Results: results,
		}},
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(&log)
}

// jsonFinding is one finding in `azlint -json` output.
type jsonFinding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
	Fixable  bool   `json:"fixable"`
}

func writeJSON(w io.Writer, findings []finding) error {
	out := make([]jsonFinding, 0, len(findings))
	for _, f := range findings {
		out = append(out, jsonFinding{
			File:     f.pos.Filename,
			Line:     f.pos.Line,
			Column:   f.pos.Column,
			Analyzer: f.diag.Analyzer,
			Message:  f.diag.Message,
			Fixable:  f.diag.Fix != nil,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
