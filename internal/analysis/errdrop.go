package analysis

import (
	"go/ast"
	"go/types"
)

// errdropPkgSegments mark the client/handler API packages whose errors
// encode throttles, faults and storage failures: dropping one silently
// swallows a ServerBusy or an injected fault and skews every measured
// figure. tracegraph, scenario and georepl are included because their
// errors are the analysis/SLO/failover results themselves: a dropped
// tracegraph export error leaves a truncated Chrome trace that reads as
// "no latency", and a dropped scenario SLO error un-gates CI.
var errdropPkgSegments = []string{"cloud", "sdk", "rest", "tracegraph", "scenario", "georepl"}

// Errdrop flags discarded error results from the cloud, sdk, rest,
// tracegraph, scenario and georepl APIs — calls used as bare statements
// (including defer) and error results assigned to the blank identifier.
var Errdrop = &Analyzer{
	Name: "errdrop",
	Doc: "flag discarded error returns from internal/cloud, internal/sdk, internal/rest, " +
		"internal/tracegraph, internal/scenario and internal/georepl APIs; a swallowed " +
		"ServerBusy, injected fault or SLO failure silently skews measured figures",
	Run: runErrdrop,
}

func runErrdrop(pass *Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ExprStmt:
				checkDroppedCall(pass, n.X)
			case *ast.DeferStmt:
				checkDroppedCall(pass, n.Call)
			case *ast.GoStmt:
				checkDroppedCall(pass, n.Call)
			case *ast.AssignStmt:
				checkBlankErr(pass, n)
			}
			return true
		})
	}
}

// checkDroppedCall reports a call whose entire result list — including
// an error — is discarded.
func checkDroppedCall(pass *Pass, expr ast.Expr) {
	call, ok := ast.Unparen(expr).(*ast.CallExpr)
	if !ok {
		return
	}
	fn := errdropCallee(pass.Info, call)
	if fn == nil {
		return
	}
	sig := fn.Type().(*types.Signature)
	res := sig.Results()
	for i := 0; i < res.Len(); i++ {
		if isErrorType(res.At(i).Type()) {
			pass.Reportf(call.Pos(),
				"error returned by %s is discarded; handle it or annotate "+
					"//azlint:allow errdrop(reason)", errdropCallName(fn))
			return
		}
	}
}

// checkBlankErr reports error results assigned to the blank identifier
// in a tuple or single assignment.
func checkBlankErr(pass *Pass, as *ast.AssignStmt) {
	// Only the form lhs... = f(...) can discard tuple elements.
	if len(as.Rhs) != 1 {
		return
	}
	call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
	if !ok {
		return
	}
	fn := errdropCallee(pass.Info, call)
	if fn == nil {
		return
	}
	sig := fn.Type().(*types.Signature)
	res := sig.Results()
	if res.Len() != len(as.Lhs) {
		return
	}
	for i := 0; i < res.Len(); i++ {
		id, ok := as.Lhs[i].(*ast.Ident)
		if !ok || id.Name != "_" || !isErrorType(res.At(i).Type()) {
			continue
		}
		pass.Reportf(as.Pos(),
			"error returned by %s is assigned to _; handle it or annotate "+
				"//azlint:allow errdrop(reason)", errdropCallName(fn))
		return
	}
}

// errdropCallee resolves the callee if it belongs to one of the tracked
// API packages, else nil.
func errdropCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	fn := calleeFunc(info, call)
	if fn == nil {
		return nil
	}
	p := pkgPathOf(fn)
	for _, seg := range errdropPkgSegments {
		if hasSegment(p, seg) {
			return fn
		}
	}
	return nil
}

func errdropCallName(fn *types.Func) string {
	if named := recvNamed(fn); named != nil {
		return named.Obj().Name() + "." + fn.Name()
	}
	return base(pkgPathOf(fn)) + "." + fn.Name()
}
