package analysis_test

import (
	"testing"

	"azurebench/internal/analysis"
	"azurebench/internal/analysis/atest"
)

// TestSeededrand: every global draw is reported at its own line, in any
// package; a helper chain is reported once, at the draw it ends in.
func TestSeededrand(t *testing.T) {
	atest.Run(t, analysis.Seededrand, "seededrand/cloud", "seededrand/outofscope",
		"seededrand/tracegraph", "seededrand/chain")
}

func TestLockorder(t *testing.T) {
	atest.Run(t, analysis.Lockorder, "lockorder/a")
}

// TestAllowEdgeCases covers the directive grammar's corners: several
// analyzers sharing one directive (the half outside the run set is not
// stale), a directive trailing the offending line, stale directives
// mid-file and as the last line of a file, and malformed ones.
func TestAllowEdgeCases(t *testing.T) {
	atest.Run(t, analysis.Seededrand, "allowedge/sim")
}

func TestErrdrop(t *testing.T) {
	atest.Run(t, analysis.Errdrop, "errdrop/app")
}

func TestSimblock(t *testing.T) {
	atest.Run(t, analysis.Simblock, "simblock/app")
}
