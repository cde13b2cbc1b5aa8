package analysis

import (
	"go/ast"
	"go/types"
)

// This file is the interprocedural substrate of seededrand: a
// per-package call graph (AST-resolved through go/types, so only static
// calls — no interface dispatch or function values) reduced to one
// summary per function. All summaries live in one program-wide table,
// map[string]FuncTaint keyed by FuncKey (which is package-qualified);
// functions with an empty summary are omitted. The driver and the fixture
// harness fill it package by package in dependency order, so each
// summary already embeds the transitive chains of its callees.

// FuncTaint is the interprocedural summary of one function: why calling
// it makes the caller's behaviour depend on process state.
type FuncTaint struct {
	// GlobalRand is the call chain from the function's first offending
	// callee down to a draw from the process-global math/rand source, in
	// display form ("util.jitter", "rand.Float64"), so the diagnostic at
	// the deterministic call site can show the whole path; nil if clean.
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
	// seed: a direct reference (call or value use) to a global-rand
	// function in this body, unless an //azlint:allow seededrand
	// sanctions it (the live-mode jitter default must not taint its
	// callers).
	seed string
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
			if facts[key].GlobalRand != nil {
				continue
			}
			if chain := chainOf(fi, facts); chain != nil {
				facts[key] = FuncTaint{GlobalRand: chain}
				changed = true
			}
		}
	}
}

// chainOf returns a function's taint: its own seed, or else the chain of
// its first tainted callee behind that callee's name.
func chainOf(fi *funcInfo, facts map[string]FuncTaint) []string {
	if fi.seed != "" {
		return []string{fi.seed}
	}
	for _, callee := range fi.calls {
		if c := facts[FuncKey(callee)].GlobalRand; c != nil {
			return append([]string{displayName(callee)}, c...)
		}
	}
	return nil
}

// collectFuncInfo walks one function body for seeds and call edges.
// Closure bodies are attributed to the enclosing declaration:
// conservative (the closure may never run), but deterministic and safe
// for the contract being checked.
func collectFuncInfo(pkg *Package, fd *ast.FuncDecl, obj *types.Func, allows []*allowSite) *funcInfo {
	fi := &funcInfo{obj: obj}
	info := pkg.Info
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			fn, ok := info.Uses[n.Sel].(*types.Func)
			if !ok || fn.Type().(*types.Signature).Recv() != nil || fi.seed != "" {
				return true
			}
			if p := pkgPathOf(fn); (p == "math/rand" || p == "math/rand/v2") && !seededRandOK[fn.Name()] {
				pos := pkg.Fset.Position(n.Pos())
				if !allowCovers(allows, Seededrand.Name, pos.Filename, pos.Line) {
					fi.seed = "rand." + fn.Name()
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
