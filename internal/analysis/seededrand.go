package analysis

import (
	"go/ast"
	"go/types"
	"strings"
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

// Seededrand forbids the process-global math/rand source in
// deterministic packages. Simulation code uses the splitmix64 generator
// in internal/sim (seeded per Env); live-mode code threads an injectable
// func() float64 and keeps the global default behind an
// //azlint:allow seededrand(reason) annotation.
//
// The check is interprocedural: a call into a helper
// package whose body transitively draws from the global source is
// flagged at the deterministic call site with the full call chain.
var Seededrand = &Analyzer{
	Name: "seededrand",
	Doc: "forbid global math/rand functions and unseeded sources in deterministic packages, " +
		"including transitively through helper calls; use the seeded internal/sim generator " +
		"or an injectable source",
	Run: runSeededrand,
}

func runSeededrand(pass *Pass) {
	if !Deterministic(pass.Pkg.Path()) {
		return
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				checkSeededrandDirect(pass, n)
			case *ast.CallExpr:
				checkSeededrandCall(pass, n)
			}
			return true
		})
	}
}

func checkSeededrandDirect(pass *Pass, sel *ast.SelectorExpr) {
	obj := pass.Info.Uses[sel.Sel]
	p := pkgPathOf(obj)
	if p != "math/rand" && p != "math/rand/v2" {
		return
	}
	fn, ok := obj.(*types.Func)
	if !ok || recvNamed(fn) != nil || seededRandOK[fn.Name()] {
		return
	}
	pass.Reportf(sel.Pos(),
		"rand.%s draws from the process-global math/rand source in deterministic package %s; "+
			"use the seeded sim.Rand / an injectable source or annotate "+
			"//azlint:allow seededrand(reason)",
		fn.Name(), base(pass.Pkg.Path()))
}

func checkSeededrandCall(pass *Pass, call *ast.CallExpr) {
	fn := calleeFunc(pass.Info, call)
	if fn == nil {
		return
	}
	declPath := pkgPathOf(fn)
	if declPath == "" || declPath == pass.Pkg.Path() || Deterministic(declPath) {
		return
	}
	t := pass.TaintOf(fn)
	if t.GlobalRand == nil {
		return
	}
	chain := displayName(fn) + " → " + strings.Join(t.GlobalRand, " → ")
	pass.Reportf(call.Pos(),
		"call to %s eventually draws from the process-global math/rand source (%s) in "+
			"deterministic package %s; thread a seeded *rand.Rand through the helper or annotate "+
			"//azlint:allow seededrand(reason)",
		displayName(fn), chain, base(pass.Pkg.Path()))
}
