// Command azlint is the repository's determinism-and-safety linter: an
// interprocedural multichecker for the eight analyzers in
// internal/analysis (walltime, seededrand, maporder, digestunsafe,
// errdrop, simblock, lockorder, hotalloc). Wall-clock, global-rand and
// map-order taint is tracked across function and package boundaries
// through per-function fact summaries, and diagnostics report the full
// call chain at the sim-facing call site.
//
// It runs on package patterns, loading the whole program via
// `go list -export -deps` and the gc export-data importer:
//
//	go build -o bin/azlint ./cmd/azlint
//	bin/azlint ./...
//
// (`make lint` does exactly that.) Flags:
//
//	-fix          apply the suggested mechanical fixes in place
//	-json         emit findings as a JSON array on stdout
//	-sarif        emit SARIF 2.1.0 on stdout (for code scanning)
//	-o FILE       write -json/-sarif output to FILE instead of stdout
//	-debt         print the suppression-debt table (//azlint:allow
//	              directives per analyzer) instead of findings
//
// Deliberate violations are suppressed in source with a mandatory
// justification: //azlint:allow <analyzer>(<reason>).
package main

import (
	"os"

	"azurebench/internal/analysis/driver"
)

func main() {
	os.Exit(driver.Main(os.Args[1:], os.Stdout, os.Stderr))
}
