package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Determinism enforces the seeded-simulation contract: identical seeds
// must produce identical results. It flags nine nondeterminism sources
// in the seventeen packages of its scope:
//
//  1. draws from math/rand's unseeded global source, in function bodies
//     and in package-level var initializers alike (use a seeded
//     *rand.Rand, e.g. sim.NewRNG);
//  2. wall-clock reads — time.Now() or time.Since() — outside the
//     wall-clock allowlist, in function bodies and in package-level var
//     initializers alike (simulation code must use the engine's virtual
//     clock or an injected clock; overhead measurement goes through the
//     allowlisted internal/obs/prof profiler);
//  3. iteration over a map that appends to a slice declared outside the
//     loop without a subsequent deterministic sort — the slice's order
//     then depends on Go's randomized map iteration;
//  4. method calls on a shared RNG (*sim.RNG or *math/rand.Rand) captured
//     inside a concurrent function literal — a `go` statement or a task
//     passed to par.ParFor/ParMap/ParMapErr. Concurrent draws interleave
//     by schedule, so results change run to run; derive one stream per
//     task (rng.Stream) before the fan-out instead. Receivers selected
//     through an index expression (streams[i].Float64()) are the
//     sanctioned per-task pattern and are not flagged;
//  5. tracer emission (obs.Tracer methods that append to the event
//     stream) inside a map-range loop — the events land in Go's
//     randomized map order, breaking the byte-identical-trace contract;
//     iterate sorted keys instead;
//  6. tracer emission on a tracer captured inside a concurrent function
//     literal — emissions interleave by schedule; return the task's
//     results and emit after the fan-out, in input order;
//  7. sim.Engine scheduling (Schedule/After/Ticker) or RNG draws inside a
//     map-range body — fault plans and other schedules armed in Go's
//     randomized map order produce a different event sequence (and
//     consume RNG streams in a different order) every run; iterate a
//     slice or sorted keys instead;
//  8. compound float accumulation (+= or -=) into a variable that outlives
//     a map-range loop — float addition is not associative, so the sum's
//     low bits vary with Go's randomized iteration order even though every
//     element is visited; iterate sorted keys (or a slice) instead.
//     Integer accumulation is associative and passes;
//  9. writes to a variable captured by a concurrent function literal (the
//     literals of rule 4, nested literals included) — they race, and even
//     under a mutex their order depends on the schedule. An index write
//     into a captured slice (out[i] = ...) is the sanctioned per-task
//     merge and passes; one into a captured map does not (concurrent map
//     writes fault).
//
// Rules 4, 6 and 9 share one walk over each concurrent literal
// (checkConcurrentCapture). Function literals in package-level var
// initializers are walked too.
var Determinism = &Analyzer{
	Name: "determinism",
	Doc: "flags unseeded global math/rand draws and wall-clock reads " +
		"(time.Now/time.Since), package-level var initializers included, " +
		"unsorted result accumulation across map iteration, shared-RNG " +
		"capture in concurrent tasks, trace emission in map order or " +
		"across concurrent tasks, engine scheduling or RNG draws in " +
		"map order, order-sensitive float accumulation across map " +
		"iteration, and writes to captured state from concurrent tasks " +
		"(out[i] = ... index writes into a captured slice are sanctioned) " +
		"in simulation code",
	Scope: simulationScope,
	Run:   runDeterminism,
}

// simulationScope is the package scope of the determinism analyzer: the
// simulation code whose results must be a pure function of the seed.
var simulationScope = []string{
	"internal/sim",
	"internal/experiments",
	"internal/classify",
	"internal/sched",
	"internal/core",
	"internal/par",
	"internal/obs",
	"internal/chaos",
	"internal/slo",
	"internal/workload",
	"internal/baselines",
	"internal/cluster",
	"internal/cf",
	"internal/perfmodel",
	"internal/interference",
	"internal/loadgen",
	"internal/metrics",
}

// wallClockAllowlist names the functions (as pkgpath.Func or
// pkgpath.Recv.Method) that are sanctioned wall-clock readers: overhead
// measurement that is intentionally not simulated. Everything else must
// inject a clock or use virtual time.
var wallClockAllowlist = map[string]bool{
	"quasar/internal/experiments.wallClock": true,
	// The self-profiler is the sanctioned wall-clock boundary: Now is
	// its single read point and base anchors it at process start. See the
	// package doc of internal/obs/prof for why it sits outside the
	// determinism contract.
	"quasar/internal/obs/prof.Now":  true,
	"quasar/internal/obs/prof.base": true,
}

// globalRandFuncs are the math/rand package-level functions that draw
// from (or mutate) the shared global source. The constructors New and
// NewSource are deliberately absent: they are how seeded generators are
// built.
var globalRandFuncs = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
	"Float32": true, "Float64": true, "ExpFloat64": true, "NormFloat64": true,
	"Perm": true, "Shuffle": true, "Seed": true, "Read": true,
	// math/rand/v2 additions.
	"N": true, "IntN": true, "Int32": true, "Int32N": true, "Int64N": true,
	"Uint": true, "UintN": true, "Uint32N": true, "Uint64N": true,
}

func runDeterminism(pass *Pass) {
	for _, file := range pass.Pkg.Files {
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Body == nil {
					continue
				}
				checkFuncDeterminism(pass, d)
			case *ast.GenDecl:
				if d.Tok != token.VAR {
					continue
				}
				checkVarDeterminism(pass, d)
			}
		}
	}
}

// checkVarDeterminism flags global math/rand draws and wall-clock reads in
// package-level var initializers, and walks the concurrent literals inside
// them. These run before any function body, so the function walk never
// sees them — `var start = time.Now()` or `var jitter = rand.Float64()`
// would otherwise smuggle a wall-clock anchor or an unseeded draw into
// simulation code unnoticed. The allowlist key is pkgpath.VarName (first
// name of the spec), matching funcKey's shape.
func checkVarDeterminism(pass *Pass, gd *ast.GenDecl) {
	for _, spec := range gd.Specs {
		vs, ok := spec.(*ast.ValueSpec)
		if !ok || len(vs.Values) == 0 || len(vs.Names) == 0 {
			continue
		}
		key := pass.Pkg.Path + "." + vs.Names[0].Name
		for _, v := range vs.Values {
			ast.Inspect(v, func(n ast.Node) bool {
				checkConcurrentLit(pass, n)
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				reportPkgCall(pass, call, key)
				return true
			})
		}
	}
}

// reportPkgCall applies rules 1 and 2 to one call: a draw from math/rand's
// global source, or a time.Now or time.Since call outside the wall-clock
// allowlist (allowKey names the enclosing function or var). Both read the
// real clock: Since is Now minus its argument, so it is exactly as
// nondeterministic under fixed seeds.
func reportPkgCall(pass *Pass, call *ast.CallExpr, allowKey string) {
	pkgPath, name, ok := pkgFuncCall(pass, call)
	if !ok {
		return
	}
	switch {
	case (pkgPath == "math/rand" || pkgPath == "math/rand/v2") && globalRandFuncs[name]:
		pass.Reportf(call.Pos(),
			"call to global math/rand.%s draws from the unseeded shared source; use a seeded generator (sim.NewRNG)", name)
	case pkgPath != "time" || wallClockAllowlist[allowKey]:
	case name == "Now":
		pass.Reportf(call.Pos(),
			"bare time.Now() is nondeterministic under fixed seeds; use the sim engine's virtual clock or an injected clock")
	case name == "Since":
		pass.Reportf(call.Pos(),
			"time.Since reads the wall clock and is nondeterministic under fixed seeds; use the sim engine's virtual clock or route overhead measurement through internal/obs/prof")
	}
}

// parFanoutFuncs are the internal/par entry points whose function-literal
// arguments run concurrently on the worker pool.
var parFanoutFuncs = map[string]bool{
	"ParFor": true, "ParMap": true, "ParMapErr": true,
}

func checkFuncDeterminism(pass *Pass, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		checkConcurrentLit(pass, n)
		switch n := n.(type) {
		case *ast.CallExpr:
			reportPkgCall(pass, n, funcKey(pass, fd))
		case *ast.RangeStmt:
			checkMapRange(pass, fd, n)
		}
		return true
	})
}

// checkConcurrentLit hands every function literal that n runs concurrently
// — a go statement's literal or a task passed to a par fan-out — to
// checkConcurrentCapture.
func checkConcurrentLit(pass *Pass, n ast.Node) {
	switch n := n.(type) {
	case *ast.CallExpr:
		if pkgPath, name, ok := pkgFuncCall(pass, n); ok &&
			strings.HasSuffix(pkgPath, "internal/par") && parFanoutFuncs[name] {
			for _, arg := range n.Args {
				if fl, ok := arg.(*ast.FuncLit); ok {
					checkConcurrentCapture(pass, fl, "par."+name+" task")
				}
			}
		}
	case *ast.GoStmt:
		if fl, ok := n.Call.Fun.(*ast.FuncLit); ok {
			checkConcurrentCapture(pass, fl, "goroutine")
		}
	}
}

// checkConcurrentCapture walks a concurrent function literal, nested
// literals included (a deferred handler or helper closure still runs on the
// task's goroutine), for shared mutable state captured from the enclosing
// scope: writes to a captured variable (rule 9) and method calls whose
// receiver is a captured RNG (rule 4: concurrent draws interleave by
// goroutine schedule, and race, for sim.RNG) or tracer emission (rule 6:
// concurrent appends interleave the same way, breaking the
// byte-identical-trace contract). Receivers reached through an index
// expression — streams[i].Float64() on a pre-derived per-task slice — are
// the sanctioned pattern and pass. Values declared inside the literal are
// task-local and also pass.
func checkConcurrentCapture(pass *Pass, fl *ast.FuncLit, context string) {
	ast.Inspect(fl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				reportCapturedWrite(pass, fl, lhs, n.Pos(), context)
			}
		case *ast.IncDecStmt:
			reportCapturedWrite(pass, fl, n.X, n.Pos(), context)
		case *ast.CallExpr:
			reportSharedReceiver(pass, fl, n, context)
		}
		return true
	})
}

// reportSharedReceiver flags call when its receiver is a captured RNG or a
// captured tracer it emits on.
func reportSharedReceiver(pass *Pass, fl *ast.FuncLit, call *ast.CallExpr, context string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	tv, ok := pass.Pkg.Info.Types[sel.X]
	if !ok {
		return
	}
	isRNG := isRNGType(tv.Type)
	isTrace := isTracerType(tv.Type) && tracerEmitMethods[sel.Sel.Name]
	if !isRNG && !isTrace {
		return
	}
	root := capturedRoot(pass, sel.X, fl)
	if root == nil {
		return
	}
	if isRNG {
		pass.Reportf(call.Pos(),
			"RNG %s is shared across concurrent tasks in this %s: draws interleave by schedule; derive one stream per task (rng.Stream) before the fan-out",
			root.Name(), context)
	} else {
		pass.Reportf(call.Pos(),
			"tracer %s is shared across concurrent tasks in this %s: emissions interleave by schedule; emit after the fan-out, in input order",
			root.Name(), context)
	}
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

// isRNGType reports whether t is (a pointer to) a random-number generator:
// sim.RNG, sim.Source or math/rand's Rand.
func isRNGType(t types.Type) bool {
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	path, name := named.Obj().Pkg().Path(), named.Obj().Name()
	switch {
	case strings.HasSuffix(path, "internal/sim") && (name == "RNG" || name == "Source"):
		return true
	case (path == "math/rand" || path == "math/rand/v2") && name == "Rand":
		return true
	}
	return false
}

// tracerEmitMethods are the obs.Tracer methods that append to the event
// stream. Read-only accessors (Enabled, Len, Events, Tracks) are
// deliberately absent: they are safe anywhere.
var tracerEmitMethods = map[string]bool{
	"Instant": true, "InstantAt": true, "Begin": true, "End": true,
	"BeginAsync": true, "EndAsync": true, "Counter": true,
}

// isTracerType reports whether t is (a pointer to) the observability
// subsystem's event emitter, obs.Tracer.
func isTracerType(t types.Type) bool {
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	path, name := named.Obj().Pkg().Path(), named.Obj().Name()
	return strings.HasSuffix(path, "internal/obs") && name == "Tracer"
}

// capturedRoot walks a receiver expression (ident, selector chain, parens)
// down to its root identifier and returns that identifier's object when it
// is declared outside the function literal — i.e. captured. An index
// expression anywhere in the chain, or a root declared inside the literal,
// returns nil.
func capturedRoot(pass *Pass, expr ast.Expr, fl *ast.FuncLit) types.Object {
	for {
		switch e := expr.(type) {
		case *ast.ParenExpr:
			expr = e.X
		case *ast.SelectorExpr:
			expr = e.X
		case *ast.Ident:
			obj := pass.Pkg.Info.Uses[e]
			if obj == nil || obj.Pos() == 0 { // builtin or unresolved
				return nil
			}
			if obj.Pos() >= fl.Pos() && obj.Pos() <= fl.End() {
				return nil // declared inside the literal: task-local
			}
			return obj
		default: // IndexExpr, CallExpr, ...: per-task selection or fresh value
			return nil
		}
	}
}

// pkgFuncCall resolves a call of the form pkg.Func where pkg is an
// imported package name, returning the package path and function name.
func pkgFuncCall(pass *Pass, call *ast.CallExpr) (pkgPath, name string, ok bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", "", false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", "", false
	}
	pn, ok := pass.Pkg.Info.Uses[id].(*types.PkgName)
	if !ok {
		return "", "", false
	}
	return pn.Imported().Path(), sel.Sel.Name, true
}

// funcKey renders fd as pkgpath.Func or pkgpath.Recv.Method for allowlist
// lookups.
func funcKey(pass *Pass, fd *ast.FuncDecl) string {
	key := pass.Pkg.Path + "."
	if fd.Recv != nil && len(fd.Recv.List) > 0 {
		t := fd.Recv.List[0].Type
		if star, ok := t.(*ast.StarExpr); ok {
			t = star.X
		}
		if gen, ok := t.(*ast.IndexExpr); ok { // generic receiver
			t = gen.X
		}
		if id, ok := t.(*ast.Ident); ok {
			key += id.Name + "."
		}
	}
	return key + fd.Name.Name
}

// checkMapRange flags `for ... := range m` over a map when the loop body
// appends to a slice declared outside the loop and no deterministic sort
// of that slice follows the loop in the same function.
func checkMapRange(pass *Pass, fd *ast.FuncDecl, rs *ast.RangeStmt) {
	tv, ok := pass.Pkg.Info.Types[rs.X]
	if !ok {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	// Collect slices declared outside the loop that the body appends to.
	var targets []types.Object
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, rhs := range as.Rhs {
			call, ok := rhs.(*ast.CallExpr)
			if !ok || !isBuiltinAppend(pass, call) || i >= len(as.Lhs) {
				continue
			}
			id, ok := as.Lhs[i].(*ast.Ident)
			if !ok {
				continue
			}
			obj := pass.Pkg.Info.Uses[id]
			if obj == nil {
				obj = pass.Pkg.Info.Defs[id]
			}
			// Only slices that outlive the loop iteration matter.
			if obj != nil && (obj.Pos() < rs.Pos() || obj.Pos() > rs.End()) {
				targets = append(targets, obj)
			}
		}
		return true
	})
	for _, obj := range targets {
		if !sortedAfter(pass, fd, rs, obj) {
			pass.Reportf(rs.For,
				"map iteration order is randomized: %s is appended to inside this loop; sort the keys first or sort %s afterwards",
				obj.Name(), obj.Name())
		}
	}
	// Tracer emission inside the loop body lands events in randomized map
	// order, breaking the byte-identical-trace contract. There is no
	// sort-afterwards escape hatch: the tracer's sequence numbers are
	// assigned at emission.
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || !tracerEmitMethods[sel.Sel.Name] {
			return true
		}
		tv, ok := pass.Pkg.Info.Types[sel.X]
		if !ok || !isTracerType(tv.Type) {
			return true
		}
		pass.Reportf(call.Pos(),
			"tracer emission inside map iteration lands events in Go's randomized map order; iterate a sorted key slice instead")
		return true
	})
	checkFloatAccumulation(pass, rs)
	// Engine scheduling or RNG draws in map order change the simulation's
	// event sequence (and stream consumption order) run to run: a fault
	// plan armed this way produces a different fault schedule every time.
	// Like tracer emission, there is no sort-afterwards escape hatch.
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		tv, ok := pass.Pkg.Info.Types[sel.X]
		if !ok {
			return true
		}
		switch {
		case isEngineType(tv.Type) && engineScheduleMethods[sel.Sel.Name]:
			pass.Reportf(call.Pos(),
				"sim.Engine.%s inside map iteration arms events in Go's randomized map order; iterate a slice (e.g. the fault list) or sorted keys instead", sel.Sel.Name)
		case isRNGType(tv.Type):
			pass.Reportf(call.Pos(),
				"RNG draw inside map iteration consumes the stream in Go's randomized map order; iterate a slice or sorted keys instead")
		}
		return true
	})
}

// checkFloatAccumulation flags `sum += v` / `sum -= v` inside a map-range
// body when sum is a float declared outside the loop: float addition is not
// associative, so the final value's low bits depend on Go's randomized
// iteration order. There is no sort-afterwards escape hatch — the damage is
// done during accumulation — so the fix is to iterate sorted keys.
func checkFloatAccumulation(pass *Pass, rs *ast.RangeStmt) {
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || (as.Tok != token.ADD_ASSIGN && as.Tok != token.SUB_ASSIGN) || len(as.Lhs) != 1 {
			return true
		}
		tv, ok := pass.Pkg.Info.Types[as.Lhs[0]]
		if !ok || !isFloatType(tv.Type) {
			return true
		}
		obj := rootObject(pass, as.Lhs[0])
		if obj == nil || (obj.Pos() >= rs.Pos() && obj.Pos() <= rs.End()) {
			return true // loop-local accumulator: dies with the iteration
		}
		pass.Reportf(as.TokPos,
			"float accumulation into %s inside map iteration is order-sensitive (float addition is not associative); iterate sorted keys instead",
			obj.Name())
		return true
	})
}

// isFloatType reports whether t's underlying type is a floating-point or
// complex basic type.
func isFloatType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&(types.IsFloat|types.IsComplex) != 0
}

// rootObject walks an lvalue (ident, selector chain, index, parens) down to
// its root identifier and returns that identifier's object, or nil.
func rootObject(pass *Pass, expr ast.Expr) types.Object {
	for {
		switch e := expr.(type) {
		case *ast.ParenExpr:
			expr = e.X
		case *ast.SelectorExpr:
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.StarExpr:
			expr = e.X
		case *ast.Ident:
			obj := pass.Pkg.Info.Uses[e]
			if obj == nil {
				obj = pass.Pkg.Info.Defs[e]
			}
			return obj
		default:
			return nil
		}
	}
}

// engineScheduleMethods are the sim.Engine methods that add events to the
// simulation timeline. Read-only accessors (Now, Pending, Fired) and event
// removal (Cancel, already-identified) are deliberately absent.
var engineScheduleMethods = map[string]bool{
	"Schedule": true, "After": true, "Ticker": true,
}

// isEngineType reports whether t is (a pointer to) sim.Engine.
func isEngineType(t types.Type) bool {
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	return strings.HasSuffix(named.Obj().Pkg().Path(), "internal/sim") && named.Obj().Name() == "Engine"
}

// isBuiltinAppend reports whether call invokes the append builtin.
func isBuiltinAppend(pass *Pass, call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := pass.Pkg.Info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "append"
}

// sortedAfter reports whether fd contains, after the range statement, a
// sorting call — sort.*, slices.Sort*, or a local helper whose name
// contains "sort" — that mentions obj among its arguments.
func sortedAfter(pass *Pass, fd *ast.FuncDecl, rs *ast.RangeStmt, obj types.Object) bool {
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() <= rs.End() || !isSortCall(pass, call) {
			return true
		}
		for _, arg := range call.Args {
			if mentionsObject(pass, arg, obj) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// isSortCall recognizes deterministic-ordering calls: the sort and slices
// packages, plus any function whose name mentions "sort" (local sort
// helpers).
func isSortCall(pass *Pass, call *ast.CallExpr) bool {
	if pkgPath, _, ok := pkgFuncCall(pass, call); ok {
		if pkgPath == "sort" || pkgPath == "slices" {
			return true
		}
	}
	var name string
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		name = fun.Name
	case *ast.SelectorExpr:
		name = fun.Sel.Name
	}
	return strings.Contains(strings.ToLower(name), "sort")
}

// mentionsObject reports whether expr references obj anywhere in its
// subtree.
func mentionsObject(pass *Pass, expr ast.Expr, obj types.Object) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && pass.Pkg.Info.Uses[id] == obj {
			found = true
			return false
		}
		return !found
	})
	return found
}
