// Package analysis is a dependency-free static-analysis framework plus
// the azlint analyzer suite (see DESIGN.md §8). The tests hold most of
// the reproduction's determinism contract — goldens and two-run byte
// equality catch a wall-clock read, an unsorted map range or an
// allocation per item wherever output or a ceiling depends on it. The
// four analyzers here check what no test can say: a global math/rand
// draw where no golden looks, a dropped error, a lock held across a
// simulation block, and two locks taken in both orders.
//
// The framework mirrors the shape of golang.org/x/tools/go/analysis
// (Analyzer, Pass, diagnostics) but is built purely on the standard
// library's go/ast and go/types so the module stays dependency-free.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path"
	"sort"
	"strings"
)

// Analyzer is one named check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //azlint:allow directives. Lower-case, no spaces.
	Name string
	// Doc is a one-paragraph description of what the analyzer reports.
	Doc string
	// Run inspects the package and reports diagnostics via pass.Reportf.
	Run func(pass *Pass)
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files holds the package syntax. Test files (*_test.go) are
	// excluded by the framework: live tests may legitimately measure
	// wall time, and fixture expectations stay stable either way.
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info

	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      pos,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one reported problem.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// Package bundles everything the analyzers need about one package.
type Package struct {
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
}

// NewInfo returns a types.Info with every map the analyzers consult.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
}

// Analyze applies analyzers to pkg, returning the surviving diagnostics
// in file/position order. Suppressions from //azlint:allow directives
// are applied; malformed or unknown directives — and directives for a
// ran analyzer that suppressed nothing (stale debt) — are themselves
// reported as analyzer "azlint". Test files never contribute
// diagnostics.
func Analyze(pkg *Package, analyzers []*Analyzer) []Diagnostic {
	files := nonTestFiles(pkg.Fset, pkg.Files)
	allows, diags := parseAllows(pkg.Fset, files)
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer: a,
			Fset:     pkg.Fset,
			Files:    files,
			Pkg:      pkg.Pkg,
			Info:     pkg.Info,
			diags:    &diags,
		}
		a.Run(pass)
	}
	diags = filterAllowed(pkg.Fset, diags, allows)
	diags = append(diags, staleAllows(allows, analyzers)...)
	sort.SliceStable(diags, func(i, j int) bool {
		pi, pj := pkg.Fset.Position(diags[i].Pos), pkg.Fset.Position(diags[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		return pi.Column < pj.Column
	})
	return diags
}

func nonTestFiles(fset *token.FileSet, files []*ast.File) []*ast.File {
	out := make([]*ast.File, 0, len(files))
	for _, f := range files {
		name := fset.Position(f.Pos()).Filename
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		out = append(out, f)
	}
	return out
}

// hasSegment reports whether importPath contains seg as a path segment.
func hasSegment(importPath, seg string) bool {
	for _, s := range strings.Split(importPath, "/") {
		if s == seg {
			return true
		}
	}
	return false
}

// --- shared type helpers ---

// calleeFunc resolves the called function or method, or nil.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// pkgPathOf returns the import path of the package declaring obj, or "".
func pkgPathOf(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	return obj.Pkg().Path()
}

// rootObj returns the object of the leftmost identifier in expr
// (stripping selectors, indexes, stars and parens), or nil. It
// identifies "the mutex being locked" well enough to pair a Lock with
// its Unlock.
func rootObj(info *types.Info, expr ast.Expr) types.Object {
	for {
		switch e := expr.(type) {
		case *ast.Ident:
			if obj := info.Uses[e]; obj != nil {
				return obj
			}
			return info.Defs[e]
		case *ast.SelectorExpr:
			// For a field selector x.f, the field object identifies the
			// storage location; fall back to walking left otherwise.
			if sel, ok := info.Selections[e]; ok && sel.Kind() == types.FieldVal {
				return sel.Obj()
			}
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.StarExpr:
			expr = e.X
		case *ast.ParenExpr:
			expr = e.X
		case *ast.CallExpr:
			return nil
		default:
			return nil
		}
	}
}

// recvNamed returns the named type of fn's receiver (unwrapping
// pointers), or nil for non-methods.
func recvNamed(fn *types.Func) *types.Named {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// isErrorType reports whether t is the built-in error interface.
func isErrorType(t types.Type) bool {
	named, ok := t.(*types.Named)
	return ok && named.Obj().Pkg() == nil && named.Obj().Name() == "error"
}

// base returns the last segment of an import path.
func base(importPath string) string { return path.Base(importPath) }
