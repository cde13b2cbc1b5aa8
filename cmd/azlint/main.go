// Command azlint is the repository's determinism-and-safety linter: a
// multichecker for the four analyzers in internal/analysis (seededrand,
// errdrop, simblock, lockorder), each kept because it reports a
// violation the tests let through (DESIGN.md §8). Every check is local
// to one package; a global math/rand draw is reported at its own line,
// in whichever package it is made.
//
// It takes package patterns and nothing else — there are no flags —
// type-checking each matched package against export data from
// `go list -export -deps` and the gc export-data importer:
//
//	go build -o bin/azlint ./cmd/azlint
//	bin/azlint ./...
//
// (`make lint` does exactly that.) Each finding is one line on stderr,
//
//	file:line:col: message [azlint:analyzer]
//
// and the exit code is 0 when the tree is clean, 1 when anything was
// reported, 2 on a usage or loading error.
//
// Deliberate violations are suppressed in source with a mandatory
// justification: //azlint:allow <analyzer>(<reason>). A directive that
// suppresses nothing is itself a finding, and
// TestSuppressionDebtCeiling (internal/analysis) pins how many of each
// the tree may carry.
package main

import (
	"os"

	"azurebench/internal/analysis/driver"
)

func main() {
	os.Exit(driver.Main(os.Args[1:], os.Stderr))
}
