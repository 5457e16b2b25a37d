package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// PanicErrAnalyzer polices the resilience layer's containment contract
// (DESIGN.md §12). The panic-recovering runtime turns a worker crash into a
// typed error — *sched.PanicError from sched.ForStatsCtx/ForTilesCtx, failed
// sweep columns from sweep.Run/Stream, *core.HealthError from the health
// checks — and the whole containment story collapses if a caller drops that
// error or matches it in a way that breaks through wrapping:
//
//   - the error results of sched.ForStatsCtx/ForTilesCtx, sweep.Run/Stream and
//     the earthing facade must not be discarded (neither as an ignored call
//     statement nor via the blank identifier);
//   - *sched.PanicError and *core.HealthError must be matched with
//     errors.As (or errors.Is), never a direct type assertion, a type
//     switch case, or pointer comparison — the facade and server wrap
//     errors with %w, so a direct match silently stops working.
//
// Unlike errdrop this analyzer runs on _test.go files and package main too:
// the chaos/acceptance suites and the example programs are exactly where a
// dropped containment error hides a swallowed panic.
var PanicErrAnalyzer = &Analyzer{
	Name: "panicerr",
	Doc:  "containment errors (sched/sweep/earthing) must be checked and matched via errors.As/Is",
	Run:  runPanicErr,
}

func runPanicErr(pass *Pass) {
	for _, file := range pass.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ExprStmt:
				if call, ok := n.X.(*ast.CallExpr); ok {
					checkContainmentDrop(pass, call, "")
				}
			case *ast.DeferStmt:
				checkContainmentDrop(pass, n.Call, "deferred ")
			case *ast.AssignStmt:
				checkContainmentBlank(pass, n)
			case *ast.TypeAssertExpr:
				checkDirectAssert(pass, n)
			case *ast.TypeSwitchStmt:
				checkTypeSwitch(pass, n)
			case *ast.BinaryExpr:
				checkPointerCompare(pass, n)
			}
			return true
		})
	}
}

// containmentCall reports whether call invokes one of the error-bearing
// containment APIs: a schedLoops loop from a sched package, Run/Stream
// from a sweep package, or any exported function of the earthing facade.
func containmentCall(pass *Pass, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	obj := pass.ObjectOf(sel.Sel)
	if obj == nil || obj.Pkg() == nil {
		return "", false
	}
	name := obj.Name()
	switch {
	case pkgPathIs(obj.Pkg().Path(), "sched") && schedLoops[name]:
		return "sched." + name, true
	case pkgPathIs(obj.Pkg().Path(), "sweep") && (name == "Run" || name == "Stream"):
		return "sweep." + name, true
	case pkgPathIs(obj.Pkg().Path(), "earthing") && ast.IsExported(name):
		return "earthing." + name, true
	}
	return "", false
}

// pkgPathIs reports whether path is base or ends in "/base".
func pkgPathIs(path, base string) bool {
	return path == base || strings.HasSuffix(path, "/"+base)
}

// checkContainmentDrop flags a containment call used as a bare statement.
func checkContainmentDrop(pass *Pass, call *ast.CallExpr, kind string) {
	name, ok := containmentCall(pass, call)
	if !ok || !resultsIncludeError(pass, call) {
		return
	}
	pass.Reportf(call.Pos(),
		"%scall to %s drops its containment error (panic/health failures vanish); check it", kind, name)
}

// checkContainmentBlank flags blank-identifier discards of containment
// errors, e.g. st, _ := sched.ForStatsCtx(…).
func checkContainmentBlank(pass *Pass, assign *ast.AssignStmt) {
	if len(assign.Rhs) != 1 {
		return
	}
	call, ok := assign.Rhs[0].(*ast.CallExpr)
	if !ok {
		return
	}
	name, ok := containmentCall(pass, call)
	if !ok {
		return
	}
	tuple, ok := pass.TypeOf(call).(*types.Tuple)
	if !ok {
		// Single error result assigned to _.
		if id, ok := assign.Lhs[0].(*ast.Ident); ok && id.Name == "_" && isErrorType(pass.TypeOf(call)) {
			pass.Reportf(id.Pos(), "containment error of %s discarded via _; check it", name)
		}
		return
	}
	for i := 0; i < tuple.Len() && i < len(assign.Lhs); i++ {
		id, ok := assign.Lhs[i].(*ast.Ident)
		if ok && id.Name == "_" && isErrorType(tuple.At(i).Type()) {
			pass.Reportf(id.Pos(), "containment error of %s discarded via _; check it", name)
		}
	}
}

// targetErrType reports whether t is *sched.PanicError or *core.HealthError
// (by package-path suffix, so the fixture stubs match too), returning a
// printable name.
func targetErrType(t types.Type) (string, bool) {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return "", false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return "", false
	}
	path, name := named.Obj().Pkg().Path(), named.Obj().Name()
	switch {
	case pkgPathIs(path, "sched") && name == "PanicError":
		return "*sched.PanicError", true
	case pkgPathIs(path, "core") && name == "HealthError":
		return "*core.HealthError", true
	}
	return "", false
}

// isErrorIface reports whether t is the error interface.
func isErrorIface(t types.Type) bool {
	return t != nil && types.Identical(t, errorType)
}

// checkDirectAssert flags err.(*sched.PanicError)-style assertions on error
// values. Assertions on plain interface{}/any values (e.g. the result of
// recover()) are fine — errors.As does not apply there.
func checkDirectAssert(pass *Pass, ta *ast.TypeAssertExpr) {
	if ta.Type == nil || !isErrorIface(pass.TypeOf(ta.X)) {
		return
	}
	if name, ok := targetErrType(pass.TypeOf(ta.Type)); ok {
		pass.Reportf(ta.Pos(), "direct type assertion to %s misses wrapped errors; use errors.As", name)
	}
}

// checkTypeSwitch flags type-switch cases naming the containment error
// types when switching on an error value.
func checkTypeSwitch(pass *Pass, sw *ast.TypeSwitchStmt) {
	var subject ast.Expr
	switch s := sw.Assign.(type) {
	case *ast.ExprStmt:
		if ta, ok := s.X.(*ast.TypeAssertExpr); ok {
			subject = ta.X
		}
	case *ast.AssignStmt:
		if len(s.Rhs) == 1 {
			if ta, ok := s.Rhs[0].(*ast.TypeAssertExpr); ok {
				subject = ta.X
			}
		}
	}
	if subject == nil || !isErrorIface(pass.TypeOf(subject)) {
		return
	}
	for _, clause := range sw.Body.List {
		cc, ok := clause.(*ast.CaseClause)
		if !ok {
			continue
		}
		for _, typ := range cc.List {
			if name, ok := targetErrType(pass.TypeOf(typ)); ok {
				pass.Reportf(typ.Pos(), "type-switch case %s misses wrapped errors; use errors.As", name)
			}
		}
	}
}

// checkPointerCompare flags ==/!= between an error value and a containment
// error pointer (or two such pointers): identity comparison breaks through
// wrapping and is never the intended match.
func checkPointerCompare(pass *Pass, b *ast.BinaryExpr) {
	if b.Op != token.EQL && b.Op != token.NEQ {
		return
	}
	tx, ty := pass.TypeOf(b.X), pass.TypeOf(b.Y)
	if isUntypedNil(tx) || isUntypedNil(ty) {
		return // pe == nil is the correct presence check
	}
	name, okx := targetErrType(tx)
	if !okx {
		name, okx = targetErrType(ty)
	}
	if !okx {
		return
	}
	pass.Reportf(b.OpPos, "%s comparison with %s misses wrapped errors; use errors.Is or errors.As", b.Op, name)
}

// isUntypedNil reports whether t is the type of a nil literal.
func isUntypedNil(t types.Type) bool {
	basic, ok := t.(*types.Basic)
	return ok && basic.Kind() == types.UntypedNil
}
