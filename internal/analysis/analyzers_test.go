package analysis_test

import (
	"testing"

	"azurebench/internal/analysis"
	"azurebench/internal/analysis/atest"
)

func TestSeededrand(t *testing.T) {
	atest.Run(t, analysis.Seededrand, "seededrand/cloud", "seededrand/outofscope", "seededrand/tracegraph")
}

// TestSeededrandChain pins the interprocedural behaviour: a deterministic
// package calling a helper chain that ends in a global math/rand draw is
// flagged at the call site with the full chain; the equivalent helper
// that takes a seeded *rand.Rand is not.
func TestSeededrandChain(t *testing.T) {
	atest.Run(t, analysis.Seededrand, "seededrand/chain/cloud", "seededrand/chain/helpers")
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

func TestScopes(t *testing.T) {
	for path, want := range map[string]bool{
		"azurebench/internal/sim":          true,
		"azurebench/internal/cloud":        true,
		"azurebench/internal/core":         true,
		"azurebench/internal/blobstore":    true,
		"azurebench/internal/storecommon":  true,
		"azurebench/internal/trace":        true,
		"azurebench/internal/tracegraph":   true,
		"azurebench/internal/telemetry":    true,
		"azurebench/internal/model":        true,
		"azurebench/internal/faults":       true,
		"azurebench/internal/partitionmgr": true,
		"azurebench/internal/scenario":     true,
		"azurebench/internal/sdk":          true,
		"azurebench/internal/liverun":      false,
		"azurebench/internal/retry":        false,
		"azurebench/internal/rest":         false,
		"azurebench/internal/vclock":       false,
		"azurebench/examples/livestore":    false,
		"azurebench/cmd/azurebench":        false,
	} {
		if got := analysis.Deterministic(path); got != want {
			t.Errorf("Deterministic(%q) = %v, want %v", path, got, want)
		}
	}
}
