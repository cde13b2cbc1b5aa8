package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"regexp"
	"strings"
)

// The escape hatch. A comment of the form
//
//	//azlint:allow <analyzer>(<reason>)
//
// suppresses diagnostics from <analyzer> on the directive's own line and
// on the line immediately below it, so it works both as a trailing
// comment and as a standalone line above the offending statement:
//
//	_ = cl.DeleteMessage(p, q, id, pop) //azlint:allow errdrop(best-effort ack; a redelivery is harmless)
//
//	//azlint:allow seededrand(live-mode default jitter source)
//	jitter = rand.Float64
//
// Several suppressions can share one directive, each with its own
// reason:
//
//	//azlint:allow seededrand(live jitter) errdrop(best-effort cleanup)
//
// The reason is mandatory — a suppression without a justification is
// itself a diagnostic — and the analyzer name must be one of the
// registered checks so typos cannot silently disable nothing. A
// directive that suppresses nothing while its analyzer runs is reported
// as stale: paid-down debt must leave the tree.
const allowPrefix = "//azlint:allow"

// Anchored at the start only: trailing text after the last closing paren
// is tolerated so explanatory prose (or a fixture's `// want`) can
// follow.
var allowRE = regexp.MustCompile(`^([a-z][a-z0-9]*)\(([^)]*)\)`)

// allowSite records one parsed, well-formed suppression.
type allowSite struct {
	analyzer string
	file     string
	line     int
	pos      token.Pos
	// used flips when the site suppresses a diagnostic; a site left
	// unused while its analyzer runs is stale.
	used bool
}

// parseAllows scans the files' comments for azlint directives. It
// returns the valid suppressions and a diagnostic (analyzer "azlint")
// for every malformed one. Names are validated against the full
// registry, not just the analyzers being run, so single-analyzer runs
// (the fixture harness) do not misreport other analyzers' directives.
func parseAllows(fset *token.FileSet, files []*ast.File) ([]*allowSite, []Diagnostic) {
	known := map[string]bool{}
	for _, a := range All() {
		known[a.Name] = true
	}
	var allows []*allowSite
	var diags []Diagnostic
	bad := func(pos token.Pos, format string, args ...any) {
		diags = append(diags, Diagnostic{
			Pos:      pos,
			Analyzer: "azlint",
			Message:  "malformed //azlint:allow directive: " + fmt.Sprintf(format, args...),
		})
	}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, allowPrefix) {
					continue
				}
				rest := strings.TrimSpace(strings.TrimPrefix(c.Text, allowPrefix))
				// One or more analyzer(reason) groups; parsing stops at the
				// first token that is not one (treated as trailing prose).
				matched := false
				for {
					m := allowRE.FindStringSubmatch(rest)
					if m == nil {
						break
					}
					matched = true
					name, reason := m[1], strings.TrimSpace(m[2])
					if !known[name] {
						bad(c.Pos(), "unknown analyzer %q", name)
					} else if reason == "" {
						bad(c.Pos(), "empty reason for %q — justify the suppression", name)
					} else {
						allows = append(allows, &allowSite{
							analyzer: name,
							file:     fset.Position(c.Pos()).Filename,
							line:     fset.Position(c.Pos()).Line,
							pos:      c.Pos(),
						})
					}
					rest = strings.TrimSpace(rest[len(m[0]):])
				}
				if !matched {
					bad(c.Pos(), "want //azlint:allow analyzer(reason), got %q", c.Text)
				}
			}
		}
	}
	return allows, diags
}

// filterAllowed drops diagnostics covered by a suppression — a
// directive for the same analyzer on the diagnostic's line or the one
// above — marking the covering sites used.
func filterAllowed(fset *token.FileSet, diags []Diagnostic, allows []*allowSite) []Diagnostic {
	out := diags[:0]
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		covered := false
		for _, a := range allows {
			if a.analyzer == d.Analyzer && a.file == pos.Filename && (a.line == pos.Line || a.line == pos.Line-1) {
				a.used = true
				covered = true
			}
		}
		if !covered {
			out = append(out, d)
		}
	}
	return out
}

// staleAllows reports directives that suppressed nothing even though
// their analyzer ran — dead debt that must be removed. Directives for
// analyzers outside the run set are left alone (an errdrop allow is not
// stale just because only seededrand ran).
func staleAllows(allows []*allowSite, analyzers []*Analyzer) []Diagnostic {
	ran := map[string]bool{}
	for _, a := range analyzers {
		ran[a.Name] = true
	}
	var diags []Diagnostic
	for _, a := range allows {
		if a.used || !ran[a.analyzer] {
			continue
		}
		diags = append(diags, Diagnostic{
			Pos:      a.pos,
			Analyzer: "azlint",
			Message: fmt.Sprintf("stale //azlint:allow %s directive: no %s diagnostic on this "+
				"or the next line — remove the suppression", a.analyzer, a.analyzer),
		})
	}
	return diags
}
