package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// simBlockingMethods are methods in internal/sim that park the calling
// process until the scheduler resumes it. The simulator is
// single-threaded: a goroutine that parks while holding a sync.Mutex
// leaves every other process that needs the lock unable to run, and the
// event loop deadlocks.
var simBlockingMethods = map[string]bool{
	"Acquire": true, // Resource.Acquire
	"Use":     true, // Resource.Use
	"Sleep":   true, // Proc.Sleep
	"Yield":   true, // Proc.Yield
	"Join":    true, // Proc.Join
	"Wait":    true, // Signal.Wait
	"Get":     true, // Store.Get (queue wait)
}

// Simblock flags holding a sync.Mutex/RWMutex across a blocking
// simulation call (Resource.Acquire/Use, Proc.Sleep, Signal.Wait, queue
// waits). The check is lexical and per-function: a lock acquired and not
// yet released (including `defer mu.Unlock()`) taints every blocking
// call below it.
var Simblock = &Analyzer{
	Name: "simblock",
	Doc: "flag sync.Mutex/RWMutex held across sim blocking calls (env waits, Resource.Acquire, " +
		"queue waits) — parking a process while holding a lock deadlocks the discrete-event scheduler",
	Run: runSimblock,
}

type simblockEvent struct {
	pos  token.Pos
	kind int // 0 lock, 1 unlock, 2 blocking call
	obj  types.Object
	name string // blocking call label
}

func runSimblock(pass *Pass) {
	for _, f := range pass.Files {
		// Every function body — declarations and literals — is its own
		// region: code inside a nested closure runs at a different time
		// than the lock site around it.
		var bodies []*ast.BlockStmt
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					bodies = append(bodies, n.Body)
				}
			case *ast.FuncLit:
				bodies = append(bodies, n.Body)
			}
			return true
		})
		for _, body := range bodies {
			checkSimblockBody(pass, body)
		}
	}
}

func checkSimblockBody(pass *Pass, body *ast.BlockStmt) {
	var events []simblockEvent
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			if n.Body != body {
				return false // separate region
			}
		case *ast.DeferStmt:
			// `defer mu.Unlock()` keeps the lock held to the end of the
			// function; recording no unlock event models exactly that.
			return false
		case *ast.CallExpr:
			if ev, ok := classifySimblockCall(pass.Info, n); ok {
				events = append(events, ev)
			}
		}
		return true
	})
	sort.Slice(events, func(i, j int) bool { return events[i].pos < events[j].pos })

	held := map[types.Object]token.Pos{}
	for _, ev := range events {
		switch ev.kind {
		case 0:
			held[ev.obj] = ev.pos
		case 1:
			delete(held, ev.obj)
		case 2:
			if len(held) == 0 {
				continue
			}
			var lockNames []string
			for obj := range held {
				lockNames = append(lockNames, obj.Name())
			}
			sort.Strings(lockNames)
			pass.Reportf(ev.pos,
				"lock %s is held across blocking simulation call %s; the parked process keeps "+
					"the lock and deadlocks the discrete-event scheduler — release before "+
					"blocking (or annotate //azlint:allow simblock(reason))",
				lockNames[0], ev.name)
		}
	}
}

// classifySimblockCall recognises Lock/Unlock on sync mutexes and
// blocking calls into internal/sim.
func classifySimblockCall(info *types.Info, call *ast.CallExpr) (simblockEvent, bool) {
	fn := calleeFunc(info, call)
	if fn == nil {
		return simblockEvent{}, false
	}
	named := recvNamed(fn)
	if named == nil {
		return simblockEvent{}, false
	}
	recvPkg := ""
	if named.Obj().Pkg() != nil {
		recvPkg = named.Obj().Pkg().Path()
	}
	if recvPkg == "sync" && (named.Obj().Name() == "Mutex" || named.Obj().Name() == "RWMutex") {
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return simblockEvent{}, false
		}
		obj := rootObj(info, sel.X)
		if obj == nil {
			return simblockEvent{}, false
		}
		switch fn.Name() {
		case "Lock", "RLock":
			return simblockEvent{pos: call.Pos(), kind: 0, obj: obj}, true
		case "Unlock", "RUnlock":
			return simblockEvent{pos: call.Pos(), kind: 1, obj: obj}, true
		}
		return simblockEvent{}, false
	}
	if hasSegment(recvPkg, "sim") && simBlockingMethods[fn.Name()] {
		return simblockEvent{
			pos:  call.Pos(),
			kind: 2,
			name: named.Obj().Name() + "." + fn.Name(),
		}, true
	}
	return simblockEvent{}, false
}
