package analysis_test

import (
	"testing"

	"azurebench/internal/analysis"
	"azurebench/internal/analysis/atest"
)

func TestWalltime(t *testing.T) {
	atest.Run(t, analysis.Walltime, "walltime/sim", "walltime/partitionmgr", "walltime/outofscope", "walltime/badallow")
}

// TestWalltimeChain pins the interprocedural behaviour: a sim-facing
// package calling a two-hop helper chain that ends in time.Now is
// flagged at the call site with the full chain; the equivalent helper
// that takes an injected clock is not. The helper package itself, being
// out of scope, reports nothing.
func TestWalltimeChain(t *testing.T) {
	atest.Run(t, analysis.Walltime, "walltime/chain/sim", "walltime/chain/util")
}

func TestSeededrand(t *testing.T) {
	atest.Run(t, analysis.Seededrand, "seededrand/cloud", "seededrand/outofscope", "seededrand/tracegraph")
}

// TestSeededrandChain is the interprocedural counterpart for the global
// math/rand source: flagged through helpers with the chain, clean when
// a seeded *rand.Rand is threaded through.
func TestSeededrandChain(t *testing.T) {
	atest.Run(t, analysis.Seededrand, "seededrand/chain/cloud", "seededrand/chain/helpers")
}

func TestLockorder(t *testing.T) {
	atest.Run(t, analysis.Lockorder, "lockorder/a")
}

func TestHotalloc(t *testing.T) {
	atest.Run(t, analysis.Hotalloc, "hotalloc/sim", "hotalloc/util")
}

// TestAllowEdgeCases covers the directive grammar's corners: several
// analyzers sharing one directive (the half outside the run set is not
// stale), a directive trailing the offending line, and stale directives
// mid-file and as the last line of a file.
func TestAllowEdgeCases(t *testing.T) {
	atest.Run(t, analysis.Walltime, "allowedge/sim")
}

func TestMaporder(t *testing.T) {
	atest.Run(t, analysis.Maporder, "maporder/a")
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
		"azurebench/internal/liverun":      false,
		"azurebench/internal/retry":        false,
		"azurebench/internal/sdk":          false,
		"azurebench/internal/rest":         false,
		"azurebench/internal/vclock":       false,
		"azurebench/examples/livestore":    false,
		"azurebench/cmd/azurebench":        false,
	} {
		if got := analysis.SimFacing(path); got != want {
			t.Errorf("SimFacing(%q) = %v, want %v", path, got, want)
		}
	}
	for path, want := range map[string]bool{
		"azurebench/internal/rest":       true,
		"azurebench/internal/odata":      true,
		"azurebench/internal/sim":        true,
		"azurebench/internal/cloud":      true,
		"azurebench/internal/queuestore": true,
		"azurebench/internal/core":       false,
		"azurebench/internal/scenario":   false,
		"azurebench/internal/tracegraph": false,
	} {
		if got := analysis.HotPath(path); got != want {
			t.Errorf("HotPath(%q) = %v, want %v", path, got, want)
		}
	}
	if !analysis.Deterministic("azurebench/internal/sdk") {
		t.Error("sdk must be in the deterministic (seeded-rand) scope")
	}
	if analysis.Deterministic("azurebench/internal/liverun") {
		t.Error("internal/liverun (the wall-clock substrate) must not be in the deterministic scope")
	}
}
