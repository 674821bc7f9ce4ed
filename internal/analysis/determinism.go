package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
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
// Each function body is walked once (detWalk), and each node in it is
// classified once against the map ranges and concurrent literals that
// enclose it, so a finding is reported once however deeply its loops or
// literals nest; rule 3 reports once per (loop, slice). Package-level var
// initializers get the same walk with every rule, so a function literal
// stored in a var is checked like a function body.
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
				w := &detWalk{pass: pass, key: funcKey(pass, d)}
				ast.Inspect(d.Body, w.visit)
				w.reportUnsortedAppends()
			case *ast.GenDecl:
				if d.Tok == token.VAR {
					checkVarDeterminism(pass, d)
				}
			}
		}
	}
}

// checkVarDeterminism walks package-level var initializers. These run
// before any function body, so the function walk never sees them —
// `var start = time.Now()` or `var jitter = rand.Float64()` would otherwise
// smuggle a wall-clock anchor or an unseeded draw into simulation code
// unnoticed. The allowlist key is pkgpath.VarName (first name of the spec),
// matching funcKey's shape.
func checkVarDeterminism(pass *Pass, gd *ast.GenDecl) {
	for _, spec := range gd.Specs {
		vs, ok := spec.(*ast.ValueSpec)
		if !ok || len(vs.Values) == 0 || len(vs.Names) == 0 {
			continue
		}
		w := &detWalk{pass: pass, key: pass.Pkg.Path + "." + vs.Names[0].Name}
		for _, v := range vs.Values {
			ast.Inspect(v, w.visit)
		}
		w.reportUnsortedAppends()
	}
}

// detWalk is one walk over a function body or a var initializer. It keeps
// the map ranges and concurrent literals enclosing the current node, so
// each node is classified once against all of them.
type detWalk struct {
	pass *Pass
	key  string // allowlist key of the enclosing function or var

	ranges  []*ast.RangeStmt // enclosing map ranges, innermost last
	lits    []concurrentLit  // enclosing concurrent literals, innermost last
	pending []concurrentLit  // concurrent literals seen at their go or par call
	appends []appendTarget   // rule 3 candidates, each (loop, slice) once
	sorts   []*ast.CallExpr  // sorting calls, rule 3's sort-afterwards escape
}

// concurrentLit is a function literal that runs concurrently, with the
// context its messages name ("goroutine", "par.ParFor task").
type concurrentLit struct {
	fl      *ast.FuncLit
	context string
}

// appendTarget is a slice declared outside a map range and appended to in
// its body.
type appendTarget struct {
	loop  *ast.RangeStmt
	slice types.Object
}

func (w *detWalk) visit(n ast.Node) bool {
	switch n := n.(type) {
	case *ast.RangeStmt:
		if tv, ok := w.pass.Pkg.Info.Types[n.X]; ok && isMap(tv.Type) {
			for _, e := range []ast.Expr{n.Key, n.Value, n.X} {
				if e != nil {
					ast.Inspect(e, w.visit)
				}
			}
			w.ranges = append(w.ranges, n)
			ast.Inspect(n.Body, w.visit)
			w.ranges = w.ranges[:len(w.ranges)-1]
			return false
		}
	case *ast.FuncLit:
		if i := slices.IndexFunc(w.pending, func(c concurrentLit) bool { return c.fl == n }); i >= 0 {
			ast.Inspect(n.Type, w.visit)
			w.lits = append(w.lits, w.pending[i])
			ast.Inspect(n.Body, w.visit)
			w.lits = w.lits[:len(w.lits)-1]
			return false
		}
	case *ast.GoStmt:
		if fl, ok := n.Call.Fun.(*ast.FuncLit); ok {
			w.pending = append(w.pending, concurrentLit{fl, "goroutine"})
		}
	case *ast.CallExpr:
		w.call(n)
	case *ast.AssignStmt:
		w.assign(n)
	case *ast.IncDecStmt:
		for _, c := range w.lits {
			reportCapturedWrite(w.pass, c.fl, n.X, n.Pos(), c.context)
		}
	}
	return true
}

// call classifies one call: rules 1 and 2 everywhere, rules 4 and 6 inside
// concurrent literals, rules 5 and 7 inside map ranges. It also notes par
// fan-out tasks and sorting calls for later nodes.
func (w *detWalk) call(call *ast.CallExpr) {
	pass := w.pass
	reportPkgCall(pass, call, w.key)
	if name, ok := parFanout(pass, call); ok {
		for _, arg := range call.Args {
			if fl, ok := arg.(*ast.FuncLit); ok {
				w.pending = append(w.pending, concurrentLit{fl, "par." + name + " task"})
			}
		}
	}
	if isSortCall(pass, call) {
		w.sorts = append(w.sorts, call)
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	tv, ok := pass.Pkg.Info.Types[sel.X]
	if !ok {
		return
	}
	method := sel.Sel.Name
	rng := isNamed(tv.Type, "internal/sim.RNG", "internal/sim.Source", "math/rand.Rand", "math/rand/v2.Rand")
	emits := tracerEmitMethods[method] && isNamed(tv.Type, "internal/obs.Tracer")
	for _, c := range w.lits {
		root := capturedRoot(pass, sel.X, c.fl)
		switch {
		case root == nil:
		case rng:
			pass.Reportf(call.Pos(),
				"RNG %s is shared across concurrent tasks in this %s: draws interleave by schedule; derive one stream per task (rng.Stream) before the fan-out",
				root.Name(), c.context)
		case emits:
			pass.Reportf(call.Pos(),
				"tracer %s is shared across concurrent tasks in this %s: emissions interleave by schedule; emit after the fan-out, in input order",
				root.Name(), c.context)
		}
	}
	if len(w.ranges) == 0 {
		return
	}
	// Tracer emission, engine scheduling and RNG draws in map order change
	// the trace, the event sequence or the stream consumption run to run.
	// There is no sort-afterwards escape: sequence numbers are assigned and
	// draws made at the call.
	switch {
	case emits:
		pass.Reportf(call.Pos(),
			"tracer emission inside map iteration lands events in Go's randomized map order; iterate a sorted key slice instead")
	case engineScheduleMethods[method] && isNamed(tv.Type, "internal/sim.Engine"):
		pass.Reportf(call.Pos(),
			"sim.Engine.%s inside map iteration arms events in Go's randomized map order; iterate a slice (e.g. the fault list) or sorted keys instead", method)
	case rng:
		pass.Reportf(call.Pos(),
			"RNG draw inside map iteration consumes the stream in Go's randomized map order; iterate a slice or sorted keys instead")
	}
}

// assign classifies one assignment: rule 9 inside concurrent literals,
// rules 3 and 8 inside map ranges.
func (w *detWalk) assign(as *ast.AssignStmt) {
	pass := w.pass
	for _, c := range w.lits {
		for _, lhs := range as.Lhs {
			reportCapturedWrite(pass, c.fl, lhs, as.Pos(), c.context)
		}
	}
	if len(w.ranges) == 0 {
		return
	}
	// Rule 3: a slice that outlives a loop and is appended to in it.
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
		if obj == nil {
			continue
		}
		for _, rs := range w.ranges {
			t := appendTarget{rs, obj}
			if !declaredIn(obj, rs) && !slices.Contains(w.appends, t) {
				w.appends = append(w.appends, t)
			}
		}
	}
	// Rule 8: float addition is not associative, so `sum += v` into a float
	// that outlives the loop has low bits that vary with the iteration
	// order. There is no sort-afterwards escape. The innermost range is the
	// one to test: a variable outside any enclosing range is outside it.
	if (as.Tok != token.ADD_ASSIGN && as.Tok != token.SUB_ASSIGN) || len(as.Lhs) != 1 ||
		floatKind(pass, as.Lhs[0]) == 0 {
		return
	}
	if obj := rootObject(pass, as.Lhs[0]); obj != nil && !declaredIn(obj, w.ranges[len(w.ranges)-1]) {
		pass.Reportf(as.TokPos,
			"float accumulation into %s inside map iteration is order-sensitive (float addition is not associative); iterate sorted keys instead",
			obj.Name())
	}
}

// reportUnsortedAppends reports rule 3: each (loop, slice) pair whose slice
// no sorting call after the loop mentions — sort.*, slices.Sort*, or a local
// helper whose name contains "sort".
func (w *detWalk) reportUnsortedAppends() {
	for _, t := range w.appends {
		sorted := slices.ContainsFunc(w.sorts, func(call *ast.CallExpr) bool {
			return call.Pos() > t.loop.End() && slices.ContainsFunc(call.Args, func(arg ast.Expr) bool {
				return mentionsObject(w.pass, arg, t.slice)
			})
		})
		if !sorted {
			w.pass.Reportf(t.loop.For,
				"map iteration order is randomized: %s is appended to inside this loop; sort the keys first or sort %s afterwards",
				t.slice.Name(), t.slice.Name())
		}
	}
}

// declaredIn reports whether obj is declared within n's source span.
func declaredIn(obj types.Object, n ast.Node) bool {
	return obj.Pos() >= n.Pos() && obj.Pos() <= n.End()
}

// isMap reports whether t's underlying type is a map.
func isMap(t types.Type) bool {
	_, ok := t.Underlying().(*types.Map)
	return ok
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

// parFanout returns the name of the internal/par fan-out that call invokes,
// if it is one.
func parFanout(pass *Pass, call *ast.CallExpr) (string, bool) {
	pkgPath, name, ok := pkgFuncCall(pass, call)
	return name, ok && strings.HasSuffix(pkgPath, "internal/par") && parFanoutFuncs[name]
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
		if tv, ok := pass.Pkg.Info.Types[idx.X]; ok && tv.Type != nil && isMap(tv.Type) {
			pass.Reportf(pos,
				"write into captured map %s from this %s: concurrent map writes fault; collect per-task results in a slice and merge after the fan-out",
				root.Name(), context)
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

// tracerEmitMethods are the obs.Tracer methods that append to the event
// stream. Read-only accessors (Enabled, Len, Events, Tracks) are
// deliberately absent: they are safe anywhere.
var tracerEmitMethods = map[string]bool{
	"Instant": true, "InstantAt": true, "Begin": true, "End": true,
	"BeginAsync": true, "EndAsync": true, "Counter": true,
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
			if declaredIn(obj, fl) {
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

// isBuiltinAppend reports whether call invokes the append builtin.
func isBuiltinAppend(pass *Pass, call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := pass.Pkg.Info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "append"
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
