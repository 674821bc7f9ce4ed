package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// ParCapture generalizes the determinism analyzer's shared-RNG rule to all
// shared mutable state: any variable declared outside a concurrent task
// body — a `go` statement's function literal or a task passed to
// par.ParFor/ParMap/ParMapErr — that the body writes to is flagged. Such
// writes race, and even under a mutex their order depends on the goroutine
// schedule, violating the byte-identical-results contract the worker pool
// is built around.
//
// One write shape is sanctioned: assignment through a slice index whose
// element expression roots at a captured slice (`out[i] = ...`). Each task
// owns a disjoint index, so writes never collide and the merged result is
// submission-ordered — exactly the pattern par.ParMap uses internally.
// Map index writes do NOT pass: concurrent map writes fault at runtime.
//
// Intentional exceptions (e.g. a mutex-guarded first-panic capture) carry
// //lint:allow(parcapture) with a justification.
var ParCapture = &Analyzer{
	Name: "parcapture",
	Doc: "flags writes to shared state captured by concurrent task bodies " +
		"(go statements and par fan-outs) without a submission-order merge; " +
		"out[i] = ... index writes into a captured slice are sanctioned",
	Scope: simulationScope,
	Run:   runParCapture,
}

func runParCapture(pass *Pass) {
	for _, file := range pass.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if pkgPath, name, ok := pkgFuncCall(pass, n); ok &&
					strings.HasSuffix(pkgPath, "internal/par") && parFanoutFuncs[name] {
					for _, arg := range n.Args {
						if fl, ok := arg.(*ast.FuncLit); ok {
							checkCaptureWrites(pass, fl, "par."+name+" task")
						}
					}
				}
			case *ast.GoStmt:
				if fl, ok := n.Call.Fun.(*ast.FuncLit); ok {
					checkCaptureWrites(pass, fl, "goroutine")
				}
			}
			return true
		})
	}
}

// checkCaptureWrites flags assignments and inc/dec statements inside the
// concurrent literal whose target roots at a variable captured from the
// enclosing scope. Nested function literals are traversed too: a deferred
// handler or helper closure still executes on the task's goroutine, so its
// writes are just as concurrent.
func checkCaptureWrites(pass *Pass, fl *ast.FuncLit, context string) {
	ast.Inspect(fl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				reportCapturedWrite(pass, fl, lhs, n.Pos(), context)
			}
		case *ast.IncDecStmt:
			reportCapturedWrite(pass, fl, n.X, n.Pos(), context)
		}
		return true
	})
}

// reportCapturedWrite flags lhs when it writes through a captured variable.
// Index writes into a captured slice are the sanctioned per-task merge and
// pass; index writes into a captured map are flagged (concurrent map
// writes fault).
func reportCapturedWrite(pass *Pass, fl *ast.FuncLit, lhs ast.Expr, pos token.Pos, context string) {
	if idx, ok := unwrapIndex(lhs); ok {
		root := capturedRoot(pass, idx.X, fl)
		if root == nil {
			return // task-local container
		}
		tv, ok := pass.Pkg.Info.Types[idx.X]
		if ok && tv.Type != nil {
			if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
				pass.Reportf(pos,
					"write into captured map %s from this %s: concurrent map writes fault; collect per-task results in a slice and merge after the fan-out",
					root.Name(), context)
			}
		}
		return // slice/array index write: sanctioned out[i] = ... merge
	}
	root := capturedRoot(pass, lhs, fl)
	if root == nil {
		return
	}
	if _, ok := root.(*types.Var); !ok {
		return
	}
	pass.Reportf(pos,
		"write to captured %s from this %s races and orders by schedule; write out[i] into a pre-sized slice and merge in submission order",
		root.Name(), context)
}

// unwrapIndex peels parens and returns the index expression when lhs is a
// (possibly parenthesized) index write.
func unwrapIndex(lhs ast.Expr) (*ast.IndexExpr, bool) {
	for {
		switch e := lhs.(type) {
		case *ast.ParenExpr:
			lhs = e.X
		case *ast.IndexExpr:
			return e, true
		default:
			return nil, false
		}
	}
}
