package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// LockCheck enforces mutex hygiene, which matters doubly here: a leaked
// lock deadlocks the worker pool, and a lock held across a blocking
// operation serializes the deterministic fan-outs the engine's
// parallelism depends on. For every sync.Mutex/RWMutex Lock or RLock it
// checks, within the enclosing statement block:
//
//  1. the lock is released: either the immediately following statement is
//     `defer mu.Unlock()` (the canonical form), or a matching Unlock
//     appears later in the same block with no `return` statement in
//     between — an early return between Lock and Unlock leaks the lock on
//     that path;
//  2. the critical section does not block: no channel send and no
//     par.ParFor/ParMap/ParMapErr submission while the lock is held (for
//     the deferred form, anywhere in the rest of the function). Holding a
//     lock across a fan-out invites lock-ordering deadlocks with the
//     pool's own synchronization and stalls every sibling task.
//
// Intentional exceptions carry //lint:allow(lockcheck) with a
// justification.
var LockCheck = &Analyzer{
	Name: "lockcheck",
	Doc: "flags mutex Lock without defer/paired Unlock on all return " +
		"paths, and locks held across channel sends or par submissions",
	Run: runLockCheck,
}

// lockAcquire/lockRelease pair the acquisition methods with their
// releases.
var lockRelease = map[string]string{"Lock": "Unlock", "RLock": "RUnlock"}

func runLockCheck(pass *Pass) {
	for _, file := range pass.Pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				var list []ast.Stmt
				switch b := n.(type) {
				case *ast.BlockStmt:
					list = b.List
				case *ast.CaseClause:
					list = b.Body
				case *ast.CommClause:
					list = b.Body
				default:
					return true
				}
				checkLockBlock(pass, fd, list)
				return true
			})
		}
	}
}

// checkLockBlock scans one statement list for lock acquisitions and
// validates each critical section. Locks are identified by the printed
// receiver expression (e.g. "s.mu"), so sibling mutexes on one struct stay
// distinct.
func checkLockBlock(pass *Pass, fd *ast.FuncDecl, list []ast.Stmt) {
	for i, stmt := range list {
		recv, release, ok := lockCall(pass, stmt)
		if !ok {
			continue
		}
		// Canonical form: the very next statement defers the release.
		if i+1 < len(list) {
			if def, ok := list[i+1].(*ast.DeferStmt); ok {
				if matchesRelease(pass, def.Call, recv, release) {
					// Lock held to function end: the rest of the function
					// must not block on a send or fan-out.
					reportBlockingAfter(pass, fd.Body, stmt.End(), fd.Body.End(), recv)
					continue
				}
			}
		}
		// Paired form: find the matching release later in this block.
		releaseIdx := -1
		for j := i + 1; j < len(list); j++ {
			if isReleaseStmt(pass, list[j], recv, release) {
				releaseIdx = j
				break
			}
			if def, ok := list[j].(*ast.DeferStmt); ok && matchesRelease(pass, def.Call, recv, release) {
				releaseIdx = j
				break
			}
		}
		if releaseIdx < 0 {
			pass.Reportf(stmt.Pos(),
				"%s.%s is never released in this block: add `defer %s.%s()` on the next line or a paired release on every path",
				recv, acquireName(release), recv, release)
			continue
		}
		// Returns inside the critical section leak the lock on that path.
		for j := i + 1; j < releaseIdx; j++ {
			ast.Inspect(list[j], func(n ast.Node) bool {
				switch n.(type) {
				case *ast.ReturnStmt:
					pass.Reportf(n.Pos(),
						"return while %s is locked leaks the lock on this path; use `defer %s.%s()` immediately after acquiring",
						recv, recv, release)
					return false
				case *ast.FuncLit:
					return false // a nested function returns from itself
				}
				return true
			})
		}
		reportBlockingAfter(pass, fd.Body, list[i].End(), list[releaseIdx].Pos(), recv)
	}
}

// reportBlockingAfter flags channel sends and par submissions positioned
// inside (from, to) — the span where recv's lock is held.
func reportBlockingAfter(pass *Pass, body *ast.BlockStmt, from, to token.Pos, recv string) {
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil || n.Pos() <= from || n.Pos() >= to {
			return true
		}
		switch n := n.(type) {
		case *ast.SendStmt:
			pass.Reportf(n.Pos(),
				"channel send while %s is locked can block the critical section; release the lock before sending", recv)
		case *ast.CallExpr:
			if name, ok := parFanout(pass, n); ok {
				pass.Reportf(n.Pos(),
					"par.%s submission while %s is locked stalls the worker pool for the whole fan-out; release the lock first", name, recv)
			}
		}
		return true
	})
}

// lockCall recognizes a statement of the form `x.Lock()` or `x.RLock()` on
// a sync mutex and returns the printed receiver expression and the
// matching release method name.
func lockCall(pass *Pass, stmt ast.Stmt) (string, string, bool) {
	es, ok := stmt.(*ast.ExprStmt)
	if !ok {
		return "", "", false
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok {
		return "", "", false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", "", false
	}
	release, ok := lockRelease[sel.Sel.Name]
	if !ok {
		return "", "", false
	}
	tv, ok := pass.Pkg.Info.Types[sel.X]
	if !ok || !isNamed(tv.Type, "sync.Mutex", "sync.RWMutex") {
		return "", "", false
	}
	return types.ExprString(sel.X), release, true
}

// isReleaseStmt recognizes `x.Unlock()` / `x.RUnlock()` on the same
// receiver expression.
func isReleaseStmt(pass *Pass, stmt ast.Stmt, recv, release string) bool {
	es, ok := stmt.(*ast.ExprStmt)
	if !ok {
		return false
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok {
		return false
	}
	return matchesRelease(pass, call, recv, release)
}

func matchesRelease(pass *Pass, call *ast.CallExpr, recv, release string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != release {
		return false
	}
	tv, ok := pass.Pkg.Info.Types[sel.X]
	if !ok || !isNamed(tv.Type, "sync.Mutex", "sync.RWMutex") {
		return false
	}
	return types.ExprString(sel.X) == recv
}

// acquireName inverts lockRelease for messages.
func acquireName(release string) string {
	if release == "RUnlock" {
		return "RLock"
	}
	return "Lock"
}
