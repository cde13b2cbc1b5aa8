package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// Digestunsafe is maporder's interprocedural generalisation: it flags
// map-iteration order escaping through a function boundary and reaching
// an output writer. A helper that returns the keys of a map unsorted is
// fine in isolation — the bug materialises in the caller that ranges the
// result straight into fmt/CSV/JSONL, making two identical seeds emit
// differently-ordered bytes. The helper's MapOrdered taint comes from
// the interprocedural facts, so the chain may cross any number of
// packages.
var Digestunsafe = &Analyzer{
	Name: "digestunsafe",
	Doc: "flag slices built in map-iteration order (per interprocedural facts) that reach " +
		"output writers unsorted in a caller; sort before emitting so digests are stable",
	Run: runDigestunsafe,
}

func runDigestunsafe(pass *Pass) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkDigestunsafeFunc(pass, fd)
		}
	}
}

func checkDigestunsafeFunc(pass *Pass, fd *ast.FuncDecl) {
	info := pass.Info
	sorted := collectSortTargets(info, fd.Body)

	// Locals holding the unsorted result of a map-ordered callee.
	tainted := map[types.Object]*types.Func{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 || len(as.Lhs) != 1 {
			return true
		}
		call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(info, call)
		if fn == nil || pass.TaintOf(fn).MapOrdered == nil {
			return true
		}
		if obj := rootObj(info, as.Lhs[0]); obj != nil && !sorted[obj] {
			tainted[obj] = fn
		}
		return true
	})

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.RangeStmt:
			fn := digestunsafeSource(pass, n.X, tainted)
			if fn == nil || !rangeBodyEmits(pass, n.Body) {
				return true
			}
			pass.Reportf(n.Pos(),
				"result of %s is in map-iteration order (%s) and is written out unsorted; "+
					"sort it before emitting so identical seeds produce identical bytes "+
					"(or annotate //azlint:allow digestunsafe(reason))",
				displayName(fn), digestChain(fn, pass.TaintOf(fn).MapOrdered))
		case *ast.CallExpr:
			if !isEmitCall(pass.Info, n) {
				return true
			}
			for _, arg := range n.Args {
				fn := digestunsafeSource(pass, arg, tainted)
				if fn == nil {
					continue
				}
				pass.Reportf(arg.Pos(),
					"result of %s is in map-iteration order (%s) and is passed to an output "+
						"writer unsorted; sort it first "+
						"(or annotate //azlint:allow digestunsafe(reason))",
					displayName(fn), digestChain(fn, pass.TaintOf(fn).MapOrdered))
			}
		}
		return true
	})
}

// digestunsafeSource resolves expr to a map-ordered origin: either a
// direct call to a MapOrdered function, or a local that holds one's
// unsorted result.
func digestunsafeSource(pass *Pass, expr ast.Expr, tainted map[types.Object]*types.Func) *types.Func {
	expr = ast.Unparen(expr)
	if call, ok := expr.(*ast.CallExpr); ok {
		if fn := calleeFunc(pass.Info, call); fn != nil && pass.TaintOf(fn).MapOrdered != nil {
			return fn
		}
		return nil
	}
	if obj := rootObj(pass.Info, expr); obj != nil {
		return tainted[obj]
	}
	return nil
}

// rangeBodyEmits reports whether body writes toward an output stream.
func rangeBodyEmits(pass *Pass, body *ast.BlockStmt) bool {
	emits := false
	ast.Inspect(body, func(n ast.Node) bool {
		if emits {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok && isEmitCall(pass.Info, call) {
			emits = true
		}
		return true
	})
	return emits
}

// digestChain renders the interprocedural origin chain for a diagnostic.
func digestChain(fn *types.Func, chain []string) string {
	return displayName(fn) + " → " + strings.Join(chain, " → ")
}
