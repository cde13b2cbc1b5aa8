package analysis

import (
	"go/ast"
	"go/types"
)

// This file is the interprocedural substrate of the suite: a per-package
// call graph (AST-resolved through go/types, so only static calls — no
// interface dispatch or function values) reduced to one summary per
// function. All summaries live in one program-wide table,
// map[string]FuncTaint keyed by FuncKey (which is package-qualified);
// functions with an empty summary are omitted. The driver and the fixture
// harness fill it package by package in dependency order, so each
// summary already embeds the transitive chains of its callees.

// FuncTaint is the interprocedural summary of one function: why calling
// it makes the caller's behaviour depend on process state. Each non-nil
// field holds the call chain from the function's first offending callee
// down to the seed, in display form ("util.stamp", "time.Now"), so the
// diagnostic at the sim-facing call site can show the whole path.
type FuncTaint struct {
	// Wallclock: the function transitively reads the wall clock
	// (time.Now/Sleep/After/...).
	Wallclock []string
	// GlobalRand: the function transitively draws from the
	// process-global math/rand source.
	GlobalRand []string
}

// FuncKey returns the facts key for fn — types.Func.FullName:
// "pkg/path.Func", "(pkg/path.T).Method" — with generic instantiations
// collapsed to their origin.
func FuncKey(fn *types.Func) string { return fn.Origin().FullName() }

// displayName renders fn for call chains: "Type.Method" or "pkg.Func".
func displayName(fn *types.Func) string {
	if named := recvNamed(fn); named != nil {
		return named.Obj().Name() + "." + fn.Name()
	}
	if fn.Pkg() != nil {
		return base(fn.Pkg().Path()) + "." + fn.Name()
	}
	return fn.Name()
}

// funcInfo is the per-function slice of the package call graph.
type funcInfo struct {
	obj *types.Func
	// Seeds: a direct reference (call or value use) to a wall-clock or
	// global-rand function in this body, unless an //azlint:allow for
	// the corresponding analyzer sanctions it (annotated sources — the
	// harness stopwatch, the live-mode jitter default — must not taint
	// their callers).
	wallSeed string
	randSeed string
	// calls: every statically-resolved callee, in source order.
	calls []*types.Func
}

// ComputeFacts builds the package call graph and propagates taint to a
// fixed point, writing each tainted function's summary into facts and
// reading its callees' — same package or imported — from there. Seeds
// covered by an //azlint:allow directive are skipped and the directive is
// marked used.
func ComputeFacts(pkg *Package, files []*ast.File, facts map[string]FuncTaint, allows []*allowSite) {
	var fns []*funcInfo
	for _, f := range files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			fns = append(fns, collectFuncInfo(pkg, fd, obj, allows))
		}
	}

	// Fixed point over the intra-package graph. Iteration is in source
	// order and each chain adopts the first tainted callee encountered,
	// so the result — including the chain text — is deterministic.
	for changed := true; changed; {
		changed = false
		for _, fi := range fns {
			key := FuncKey(fi.obj)
			t := facts[key]
			if t.Wallclock == nil {
				t.Wallclock = chainOf(fi.wallSeed, fi.calls, facts, func(t FuncTaint) []string { return t.Wallclock })
			}
			if t.GlobalRand == nil {
				t.GlobalRand = chainOf(fi.randSeed, fi.calls, facts, func(t FuncTaint) []string { return t.GlobalRand })
			}
			if old := facts[key]; len(old.Wallclock) != len(t.Wallclock) ||
				len(old.GlobalRand) != len(t.GlobalRand) {
				facts[key] = t
				changed = true
			}
		}
	}
}

// chainOf returns one kind of taint for a function: its own seed, or else
// the chain of its first tainted callee behind that callee's name.
func chainOf(seed string, calls []*types.Func, facts map[string]FuncTaint, kind func(FuncTaint) []string) []string {
	if seed != "" {
		return []string{seed}
	}
	for _, callee := range calls {
		if c := kind(facts[FuncKey(callee)]); c != nil {
			return append([]string{displayName(callee)}, c...)
		}
	}
	return nil
}

// collectFuncInfo walks one function body for seeds and call edges.
// Closure bodies are attributed to the enclosing declaration:
// conservative (the closure may never run), but deterministic and safe
// for the contracts being checked.
func collectFuncInfo(pkg *Package, fd *ast.FuncDecl, obj *types.Func, allows []*allowSite) *funcInfo {
	fi := &funcInfo{obj: obj}
	info := pkg.Info

	covered := func(analyzer string, pos ast.Node) bool {
		p := pkg.Fset.Position(pos.Pos())
		return allowCovers(allows, analyzer, p.Filename, p.Line)
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			fn, ok := info.Uses[n.Sel].(*types.Func)
			if !ok || fn.Type().(*types.Signature).Recv() != nil {
				return true
			}
			switch pkgPathOf(fn) {
			case "time":
				if wallTimeFuncs[fn.Name()] && fi.wallSeed == "" && !covered(Walltime.Name, n) {
					fi.wallSeed = "time." + fn.Name()
				}
			case "math/rand", "math/rand/v2":
				if !seededRandOK[fn.Name()] && fi.randSeed == "" && !covered(Seededrand.Name, n) {
					fi.randSeed = "rand." + fn.Name()
				}
			}
		case *ast.CallExpr:
			if fn := calleeFunc(info, n); fn != nil {
				fi.calls = append(fi.calls, fn)
			}
		}
		return true
	})
	return fi
}
