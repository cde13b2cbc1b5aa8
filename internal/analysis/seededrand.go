package analysis

import (
	"go/ast"
	"go/types"
)

// seededRandOK are the math/rand package-level functions that construct
// an explicitly seeded generator rather than drawing from the shared
// process-global source. Everything else at package level (Intn,
// Float64, Perm, Shuffle, Seed, ...) consumes global state whose
// sequence depends on every other consumer in the process — the exact
// property that breaks seed-reproducible retry schedules and workloads.
var seededRandOK = map[string]bool{
	"New":       true,
	"NewSource": true,
	"NewZipf":   true, // takes an explicit *Rand
}

// Seededrand forbids the process-global math/rand source in every
// package. Simulation code uses the splitmix64 generator in internal/sim
// (seeded per Env); live-mode code threads an injectable func() float64
// and keeps the global default behind an //azlint:allow
// seededrand(reason) annotation.
//
// The check is local: each reference to a global draw — a call, or the
// function taken as a value — is reported at its own line. Since it
// runs over every package, a helper chain that ends in a global draw is
// reported where the chain ends, whichever package that is.
var Seededrand = &Analyzer{
	Name: "seededrand",
	Doc: "forbid global math/rand functions; use the seeded internal/sim generator " +
		"or an injectable source",
	Run: runSeededrand,
}

func runSeededrand(pass *Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := pass.Info.Uses[sel.Sel].(*types.Func)
			if !ok || fn.Type().(*types.Signature).Recv() != nil || seededRandOK[fn.Name()] {
				return true
			}
			if p := pkgPathOf(fn); p == "math/rand" || p == "math/rand/v2" {
				pass.Reportf(sel.Pos(),
					"rand.%s draws from the process-global math/rand source in package %s; "+
						"use the seeded sim.Rand / an injectable source or annotate "+
						"//azlint:allow seededrand(reason)",
					fn.Name(), base(pass.Pkg.Path()))
			}
			return true
		})
	}
}
