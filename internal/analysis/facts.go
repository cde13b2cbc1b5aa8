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
	// MapOrdered: the function returns a slice whose element order is
	// inherited from a map iteration and never canonicalised by a sort.
	MapOrdered []string
}

// Empty reports a clean summary.
func (t FuncTaint) Empty() bool {
	return t.Wallclock == nil && t.GlobalRand == nil && t.MapOrdered == nil
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
	// mapSeed: the body returns a slice it filled inside a map range
	// without sorting it.
	mapSeed bool
	// calls: every statically-resolved callee, in source order.
	calls []*types.Func
	// retCalls: callees whose result the body returns (directly or via
	// an unsorted local), in source order — the MapOrdered edges.
	retCalls []*types.Func
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
				if fi.wallSeed != "" {
					t.Wallclock = []string{fi.wallSeed}
				} else {
					for _, callee := range fi.calls {
						if ct := facts[FuncKey(callee)]; ct.Wallclock != nil {
							t.Wallclock = append([]string{displayName(callee)}, ct.Wallclock...)
							break
						}
					}
				}
			}
			if t.GlobalRand == nil {
				if fi.randSeed != "" {
					t.GlobalRand = []string{fi.randSeed}
				} else {
					for _, callee := range fi.calls {
						if ct := facts[FuncKey(callee)]; ct.GlobalRand != nil {
							t.GlobalRand = append([]string{displayName(callee)}, ct.GlobalRand...)
							break
						}
					}
				}
			}
			if t.MapOrdered == nil {
				if fi.mapSeed {
					t.MapOrdered = []string{"map-range append"}
				} else {
					for _, callee := range fi.retCalls {
						if ct := facts[FuncKey(callee)]; ct.MapOrdered != nil {
							t.MapOrdered = append([]string{displayName(callee)}, ct.MapOrdered...)
							break
						}
					}
				}
			}
			if !t.Empty() {
				if old := facts[key]; len(old.Wallclock) != len(t.Wallclock) ||
					len(old.GlobalRand) != len(t.GlobalRand) ||
					len(old.MapOrdered) != len(t.MapOrdered) {
					facts[key] = t
					changed = true
				}
			}
		}
	}
}

// collectFuncInfo walks one function body for seeds, call edges and the
// map-ordered-return pattern. Closure bodies are attributed to the
// enclosing declaration: conservative (the closure may never run), but
// deterministic and safe for the contracts being checked.
func collectFuncInfo(pkg *Package, fd *ast.FuncDecl, obj *types.Func, allows []*allowSite) *funcInfo {
	fi := &funcInfo{obj: obj}
	info := pkg.Info

	covered := func(analyzer string, pos ast.Node) bool {
		p := pkg.Fset.Position(pos.Pos())
		return allowCovers(allows, analyzer, p.Filename, p.Line)
	}

	// The maporder building blocks, reused interprocedurally: slices
	// sorted anywhere in the body, and slices appended to inside a map
	// range.
	sorted := collectSortTargets(info, fd.Body)
	mapAppends := map[types.Object]bool{}
	// Locals assigned from a call result and never sorted: if the callee
	// turns out MapOrdered and the local is returned, the order leaks
	// through this function too.
	assignedFrom := map[types.Object]*types.Func{}

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
		case *ast.RangeStmt:
			if t := info.TypeOf(n.X); t != nil {
				if _, isMap := t.Underlying().(*types.Map); isMap {
					for obj := range collectAppendTargets(info, n.Body) {
						mapAppends[obj] = true
					}
				}
			}
		case *ast.AssignStmt:
			if len(n.Rhs) == 1 && len(n.Lhs) == 1 {
				if call, ok := ast.Unparen(n.Rhs[0]).(*ast.CallExpr); ok {
					if fn := calleeFunc(info, call); fn != nil {
						if obj := rootObj(info, n.Lhs[0]); obj != nil {
							assignedFrom[obj] = fn
						}
					}
				}
			}
		}
		return true
	})

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		for _, res := range ret.Results {
			if call, ok := ast.Unparen(res).(*ast.CallExpr); ok {
				if fn := calleeFunc(info, call); fn != nil {
					fi.retCalls = append(fi.retCalls, fn)
				}
				continue
			}
			obj := rootObj(info, res)
			if obj == nil || sorted[obj] {
				continue
			}
			if mapAppends[obj] {
				fi.mapSeed = true
			} else if fn := assignedFrom[obj]; fn != nil {
				fi.retCalls = append(fi.retCalls, fn)
			}
		}
		return true
	})
	return fi
}

// collectAppendTargets returns the objects appended to anywhere in body.
func collectAppendTargets(info *types.Info, body *ast.BlockStmt) map[types.Object]bool {
	targets := map[types.Object]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for _, rhs := range as.Rhs {
			call, ok := ast.Unparen(rhs).(*ast.CallExpr)
			if !ok || !isBuiltinAppend(info, call) || len(call.Args) == 0 {
				continue
			}
			if obj := rootObj(info, call.Args[0]); obj != nil {
				targets[obj] = true
			}
		}
		return true
	})
	return targets
}
