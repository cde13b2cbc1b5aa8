package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// wallTimeFuncs are the package-level functions of "time" that read or
// depend on the wall clock. Referencing any of them (called or passed as
// a value) inside a simulation-facing package makes the run depend on
// real time, so two identical seeds can diverge.
var wallTimeFuncs = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"Sleep":     true,
	"After":     true,
	"AfterFunc": true,
	"Tick":      true,
	"NewTimer":  true,
	"NewTicker": true,
}

// Walltime forbids wall-clock time in simulation-facing packages.
// Time must be derived from the virtual clock: env.Now()/proc.Sleep in
// the simulator, vclock.Clock everywhere the engines need timestamps.
//
// The check is interprocedural: besides direct time.Now/Sleep/... uses,
// it flags calls into helper functions — in this package's dependencies,
// however many hops away — whose bodies transitively reach the wall
// clock, and the diagnostic carries the full call chain. Helpers in
// other simulation-facing packages are not re-flagged at the call site;
// the violation is reported where it lives. The intentional harness
// measurements carry //azlint:allow walltime(reason) annotations, which
// also stop their taint from propagating to callers.
var Walltime = &Analyzer{
	Name: "walltime",
	Doc: "forbid wall-clock time in simulation-facing packages, including transitively " +
		"through helper calls into other packages; derive time from vclock.Clock or env.Now() " +
		"so runs are a pure function of the seed",
	Run: runWalltime,
}

func runWalltime(pass *Pass) {
	if !SimFacing(pass.Pkg.Path()) {
		return
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				checkWalltimeDirect(pass, n)
			case *ast.CallExpr:
				checkWalltimeCall(pass, n)
			}
			return true
		})
	}
}

// checkWalltimeDirect flags a direct reference to a wall-clock function.
func checkWalltimeDirect(pass *Pass, sel *ast.SelectorExpr) {
	obj := pass.Info.Uses[sel.Sel]
	if obj == nil || pkgPathOf(obj) != "time" || !wallTimeFuncs[obj.Name()] {
		return
	}
	// Methods like (time.Time).After share names with the wall
	// clock readers; only package-level functions touch it.
	fn, ok := obj.(*types.Func)
	if !ok || fn.Type().(*types.Signature).Recv() != nil {
		return
	}
	pass.Reportf(sel.Pos(),
		"time.%s reads the wall clock in simulation-facing package %s; "+
			"use the virtual clock (env.Now, proc.Sleep, vclock.Clock) or annotate "+
			"//azlint:allow walltime(reason)",
		obj.Name(), base(pass.Pkg.Path()))
}

// checkWalltimeCall flags a call whose callee — declared in a package
// that is not itself simulation-facing, so the violation is reported
// nowhere else — transitively reads the wall clock.
func checkWalltimeCall(pass *Pass, call *ast.CallExpr) {
	fn := calleeFunc(pass.Info, call)
	if fn == nil {
		return
	}
	declPath := pkgPathOf(fn)
	if declPath == "" || declPath == pass.Pkg.Path() || SimFacing(declPath) {
		return
	}
	t := pass.TaintOf(fn)
	if t.Wallclock == nil {
		return
	}
	chain := displayName(fn) + " → " + strings.Join(t.Wallclock, " → ")
	pass.Reportf(call.Pos(),
		"call to %s eventually reads the wall clock (%s) in simulation-facing package %s; "+
			"thread the virtual clock through the helper or annotate //azlint:allow walltime(reason)",
		displayName(fn), chain, base(pass.Pkg.Path()))
}
