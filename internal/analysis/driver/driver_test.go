package driver

import (
	"bytes"
	"strings"
	"testing"
)

// TestUsageOnNoArgs: azlint takes package patterns and nothing else, so
// no arguments, a retired flag or any other dash argument prints the
// usage line and exits 2 — never reaching `go list`.
func TestUsageOnNoArgs(t *testing.T) {
	for _, args := range [][]string{nil, {"-fix", "./..."}, {"./...", "-anything"}} {
		var errBuf bytes.Buffer
		if code := Main(args, &errBuf); code != 2 {
			t.Errorf("azlint %v exited %d, want 2", args, code)
		}
		if !strings.HasPrefix(errBuf.String(), "usage: azlint") {
			t.Errorf("azlint %v: no usage message: %q", args, errBuf.String())
		}
	}
}

// TestStandaloneClean drives the real path end to end (go list,
// export-data import, analyzers) over the whole module, asserting exit 0
// and nothing reported: any finding the linter makes fails
// `go test ./...`, not only `make lint`.
func TestStandaloneClean(t *testing.T) {
	if testing.Short() {
		t.Skip("shells out to the go command")
	}
	var errBuf bytes.Buffer
	if code := Main([]string{"azurebench/..."}, &errBuf); code != 0 || errBuf.Len() != 0 {
		t.Fatalf("exit %d, output:\n%s", code, errBuf.String())
	}
}
