package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// Maporder flags `range` over a map whose iteration order can leak into
// output: a body that writes (fmt/CSV/JSONL/builders) emits records in
// map order, and a body that appends to a slice bakes map order into the
// slice unless the slice is sorted before use. Both are the class of bug
// that makes two identical seeds produce differently-ordered results.
//
// The canonical safe idiom is untouched: collecting keys and sorting,
//
//	for k := range m { keys = append(keys, k) }
//	sort.Strings(keys)
//
// is fine because the append target is sorted in the same function.
var Maporder = &Analyzer{
	Name: "maporder",
	Doc: "flag map iteration whose order reaches output (direct writes, or slice appends " +
		"never sorted in the same function); sort keys before emitting results",
	Run: runMaporder,
}

// emitFuncPkgs are packages whose Print-like top-level functions write
// output directly.
var emitFuncPkgs = map[string]bool{"fmt": true, "log": true}

// sortFuncNames are the sort/slices entry points that make a slice's
// final order independent of insertion order.
var sortFuncNames = map[string]bool{
	"Sort":           true,
	"Stable":         true,
	"Slice":          true,
	"SliceStable":    true,
	"Strings":        true,
	"Ints":           true,
	"Float64s":       true,
	"SortFunc":       true,
	"SortStableFunc": true,
}

// emitMethodNames are method names that move bytes toward an output:
// io.Writer/strings.Builder writes, csv.Writer.Write, json.Encoder.Encode.
var emitMethodNames = map[string]bool{
	"Write":       true,
	"WriteString": true,
	"WriteRune":   true,
	"WriteByte":   true,
	"Encode":      true,
	"Print":       true,
	"Printf":      true,
	"Println":     true,
}

func runMaporder(pass *Pass) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			sorted := collectSortTargets(pass.Info, fd.Body)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				rs, ok := n.(*ast.RangeStmt)
				if !ok {
					return true
				}
				t := pass.Info.TypeOf(rs.X)
				if t == nil {
					return true
				}
				if _, isMap := t.Underlying().(*types.Map); !isMap {
					return true
				}
				checkMapRange(pass, rs, sorted)
				return true
			})
		}
	}
}

// collectSortTargets returns the objects of every slice that body sorts
// via sort.* or slices.Sort*; appends into those slices are
// order-insensitive.
func collectSortTargets(info *types.Info, body *ast.BlockStmt) map[types.Object]bool {
	targets := map[types.Object]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		fn := calleeFunc(info, call)
		if fn == nil {
			return true
		}
		pkg := pkgPathOf(fn)
		if pkg != "sort" && pkg != "slices" {
			return true
		}
		if !sortFuncNames[fn.Name()] {
			return true
		}
		// sort.Sort(byName(xs)) wraps the slice in a conversion; unwrap
		// single-argument calls to find it.
		arg := ast.Unparen(call.Args[0])
		for {
			inner, ok := arg.(*ast.CallExpr)
			if !ok || len(inner.Args) != 1 {
				break
			}
			arg = ast.Unparen(inner.Args[0])
		}
		if obj := rootObj(info, arg); obj != nil {
			targets[obj] = true
		}
		return true
	})
	return targets
}

func checkMapRange(pass *Pass, rs *ast.RangeStmt, sorted map[types.Object]bool) {
	reportedEmit := false
	reportedAppend := map[types.Object]bool{}
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if reportedEmit || !isEmitCall(pass.Info, n) {
				return true
			}
			reportedEmit = true
			pass.Reportf(n.Pos(),
				"output written while iterating a map: emission order follows map order, "+
					"which differs between identical runs; collect and sort keys first "+
					"(or annotate //azlint:allow maporder(reason))")
		case *ast.AssignStmt:
			for _, rhs := range n.Rhs {
				call, ok := ast.Unparen(rhs).(*ast.CallExpr)
				if !ok || !isBuiltinAppend(pass.Info, call) {
					continue
				}
				target := rootObj(pass.Info, call.Args[0])
				if target == nil || sorted[target] || reportedAppend[target] {
					continue
				}
				reportedAppend[target] = true
				pass.Reportf(n.Pos(),
					"%s accumulates elements in map-iteration order and is never sorted in "+
						"this function; sort it before it reaches any result "+
						"(or annotate //azlint:allow maporder(reason))", target.Name())
			}
		}
		return true
	})
}

// isEmitCall reports whether call moves data toward an output stream.
func isEmitCall(info *types.Info, call *ast.CallExpr) bool {
	fn := calleeFunc(info, call)
	if fn == nil {
		return false
	}
	if recvNamed(fn) == nil {
		return emitFuncPkgs[pkgPathOf(fn)] &&
			(strings.HasPrefix(fn.Name(), "Print") || strings.HasPrefix(fn.Name(), "Fprint"))
	}
	return emitMethodNames[fn.Name()]
}

// isBuiltinAppend reports whether call is the append builtin.
func isBuiltinAppend(info *types.Info, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "append"
}
