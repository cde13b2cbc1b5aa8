package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// Hotalloc flags per-operation heap allocations inside the hot loops of
// the per-request and per-event packages (see HotPath): `make([]byte,…)`
// payload buffers, fresh `bytes.Buffer`s, and fmt formatting (Sprintf/
// Errorf/Sprint) allocate on every iteration, and at the million-client
// kernel's scale those become the dominant GC load. The repair is the
// buffer-pool direction on the roadmap — hoist the allocation out of
// the loop, reuse a pooled buffer, or annotate the site if the
// allocation is genuinely once-per-run.
var Hotalloc = &Analyzer{
	Name: "hotalloc",
	Doc: "flag per-op heap allocations (make([]byte,…), bytes.Buffer, fmt.Sprintf/Errorf) " +
		"inside loops in the REST, sim-kernel, cloud-client and engine packages; hoist or pool the buffer",
	Run: runHotalloc,
}

// hotPathSegments are the import-path segments of the packages that sit
// on a request or event path: the REST handlers and their two codecs, the sim
// kernel, the simulated client pipeline and the storage engines.
// Workload generators and report rendering (core, scenario, trace, ...)
// are deliberately outside it — what they allocate per operation is
// measured by the bench ledger (proc.allocs_per_op,
// scenario.op_overhead_us), not linted.
var hotPathSegments = []string{
	"rest", "odata", "xmlwire", "sim", "cloud",
	"blobstore", "queuestore", "tablestore", "storecommon",
}

// HotPath reports whether the package at importPath is on a per-request
// or per-event hot path.
func HotPath(importPath string) bool {
	for _, seg := range hotPathSegments {
		if hasSegment(importPath, seg) {
			return true
		}
	}
	return false
}

func runHotalloc(pass *Pass) {
	if !HotPath(pass.Pkg.Path()) {
		return
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch n := n.(type) {
			case *ast.ForStmt:
				body = n.Body
			case *ast.RangeStmt:
				body = n.Body
			default:
				return true
			}
			checkHotLoop(pass, body)
			return true
		})
	}
}

func checkHotLoop(pass *Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			// Nested loops get their own checkHotLoop call from the
			// file-level walk; don't double-report their bodies.
			return false
		case *ast.ReturnStmt:
			// A return exits the loop: anything it allocates (typically
			// fmt.Errorf on a validation failure) happens at most once
			// per loop execution, not per iteration — a cold path.
			return false
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok {
				if b, ok := pass.Info.Uses[id].(*types.Builtin); ok && b.Name() == "panic" {
					return false // panic arguments are equally cold
				}
			}
			checkHotAllocCall(pass, n)
		case *ast.CompositeLit:
			if isBytesBuffer(pass.Info.TypeOf(n)) {
				pass.Reportf(n.Pos(),
					"bytes.Buffer allocated on every loop iteration in hot-path package %s; "+
						"hoist it out of the loop and Reset, or use a pool "+
						"(or annotate //azlint:allow hotalloc(reason))", base(pass.Pkg.Path()))
			}
		}
		return true
	})
}

func checkHotAllocCall(pass *Pass, call *ast.CallExpr) {
	// make([]byte, …): a fresh payload buffer per iteration.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := pass.Info.Uses[id].(*types.Builtin); ok && b.Name() == "make" && len(call.Args) >= 1 {
			if t := pass.Info.TypeOf(call.Args[0]); t != nil && isByteSlice(t) {
				pass.Reportf(call.Pos(),
					"make([]byte, …) allocates a fresh buffer on every loop iteration in "+
						"hot-path package %s; hoist it out of the loop or use a pool "+
						"(or annotate //azlint:allow hotalloc(reason))", base(pass.Pkg.Path()))
			}
			return
		}
	}
	// new(bytes.Buffer) is the same allocation in another spelling.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := pass.Info.Uses[id].(*types.Builtin); ok && b.Name() == "new" && len(call.Args) == 1 {
			if t := pass.Info.TypeOf(call.Args[0]); t != nil && isBytesBuffer(t) {
				pass.Reportf(call.Pos(),
					"new(bytes.Buffer) allocates on every loop iteration in hot-path package %s; "+
						"hoist it out of the loop and Reset, or use a pool "+
						"(or annotate //azlint:allow hotalloc(reason))", base(pass.Pkg.Path()))
			}
			return
		}
	}
	// fmt.Sprintf / Errorf / Sprint / Sprintln: formatting allocates the
	// result (and boxes every operand) each iteration.
	fn := calleeFunc(pass.Info, call)
	if fn == nil || pkgPathOf(fn) != "fmt" || recvNamed(fn) != nil {
		return
	}
	if strings.HasPrefix(fn.Name(), "Sprint") || fn.Name() == "Errorf" {
		pass.Reportf(call.Pos(),
			"fmt.%s allocates on every loop iteration in hot-path package %s; "+
				"format once outside the loop, reuse a buffer, or return a sentinel error "+
				"(or annotate //azlint:allow hotalloc(reason))",
			fn.Name(), base(pass.Pkg.Path()))
	}
}

// isByteSlice reports whether t's underlying type is []byte.
func isByteSlice(t types.Type) bool {
	sl, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	basic, ok := sl.Elem().Underlying().(*types.Basic)
	return ok && basic.Kind() == types.Uint8
}

// isBytesBuffer reports whether t (or *t) is bytes.Buffer.
func isBytesBuffer(t types.Type) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "Buffer" &&
		named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == "bytes"
}
