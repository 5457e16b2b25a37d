package analysis

import (
	"go/ast"
	"go/types"
)

// schedLoops names the loop functions of package sched. Both analyzers that
// reason about parallel regions key on this one list: sharedwrite checks
// their bodies, panicerr their containment errors.
var schedLoops = map[string]bool{"ForStatsCtx": true, "ForTilesCtx": true}

// SharedWriteAnalyzer mechanizes the paper's §6.2 dependency-breaking
// discipline: a loop body handed to sched.ForStatsCtx or sched.ForTilesCtx —
// the runner's only two loops, so every parallel region of the solver — or
// launched with a go statement runs concurrently on several workers, so a
// write to a closure-captured variable is a data race unless it is
// partitioned or guarded. A write is accepted when
//
//   - the written location is an element access whose index expression
//     references the body's own parameters or locals (index-partitioned,
//     e.g. y[i] = sum or st.PerWorker[w] = count), or
//   - the function literal acquires a sync primitive (a Lock/RLock call on
//     a sync.Mutex/RWMutex), in which case all its captured writes are
//     treated as guarded — a deliberately coarse rule: the analyzer checks
//     lock presence, not lock coverage.
//
// Writes performed through helpers declared outside the literal are not
// seen; the analyzer is a lexical check on the parallel region itself.
// Unlike the other analyzers it also runs on _test.go files, because tests
// and benchmarks launch parallel loops too.
var SharedWriteAnalyzer = &Analyzer{
	Name: "sharedwrite",
	Doc:  "writes to closure-captured variables in parallel loop bodies (§6.2 hazard)",
	Run:  runSharedWrite,
}

func runSharedWrite(pass *Pass) {
	for _, file := range pass.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if isSchedParallelCall(pass, n) {
					for _, arg := range n.Args {
						if lit, ok := arg.(*ast.FuncLit); ok {
							checkParallelBody(pass, lit)
						}
					}
				}
			case *ast.GoStmt:
				if lit, ok := n.Call.Fun.(*ast.FuncLit); ok {
					checkParallelBody(pass, lit)
				}
			}
			return true
		})
	}
}

// isSchedParallelCall reports whether call invokes ForStatsCtx or ForTilesCtx
// from a package whose import path ends in "sched" (the repo's loop runner;
// the suffix form also matches the stub package the fixtures use).
func isSchedParallelCall(pass *Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	obj := pass.ObjectOf(sel.Sel)
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	return schedLoops[obj.Name()] && pkgPathIs(obj.Pkg().Path(), "sched")
}

// checkParallelBody flags writes to captured variables inside lit.
func checkParallelBody(pass *Pass, lit *ast.FuncLit) {
	if acquiresSyncLock(pass, lit) {
		return
	}
	isLocal := func(id *ast.Ident) bool {
		obj := pass.ObjectOf(id)
		if obj == nil {
			return true // be conservative: unresolved means no finding
		}
		return obj.Pos() >= lit.Pos() && obj.Pos() < lit.End()
	}

	check := func(lhs ast.Expr, verb string) {
		root, partitioned := rootOfWrite(pass, lhs, isLocal)
		if root == nil || partitioned {
			return
		}
		if _, ok := pass.ObjectOf(root).(*types.Var); !ok {
			return
		}
		if isLocal(root) {
			return
		}
		pass.Reportf(lhs.Pos(),
			"%s to captured %q is shared across parallel workers; partition it by the loop index or guard it with a sync primitive (§6.2)",
			verb, root.Name)
	}

	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				check(lhs, "write")
			}
		case *ast.IncDecStmt:
			check(n.X, "increment/decrement")
		}
		return true
	})
}

// rootOfWrite walks an assignment target down to its base identifier. It
// reports partitioned=true as soon as any index along the way references a
// variable local to the literal (parameters included).
func rootOfWrite(pass *Pass, e ast.Expr, isLocal func(*ast.Ident) bool) (root *ast.Ident, partitioned bool) {
	for {
		switch t := e.(type) {
		case *ast.Ident:
			return t, partitioned
		case *ast.IndexExpr:
			if indexUsesLocal(t.Index, isLocal) {
				partitioned = true
			}
			e = t.X
		case *ast.SelectorExpr:
			e = t.X
		case *ast.StarExpr:
			e = t.X
		case *ast.ParenExpr:
			e = t.X
		default:
			// Writes through call results, slices of composites, etc. are
			// outside the lexical patterns this analyzer understands.
			return nil, partitioned
		}
	}
}

// indexUsesLocal reports whether the index expression mentions an
// identifier declared inside the literal (a parameter or body local).
func indexUsesLocal(idx ast.Expr, isLocal func(*ast.Ident) bool) bool {
	found := false
	ast.Inspect(idx, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && !found {
			if id.Name != "_" && isLocal(id) {
				found = true
			}
		}
		return !found
	})
	return found
}

// acquiresSyncLock reports whether the literal calls Lock or RLock on a
// value from package sync.
func acquiresSyncLock(pass *Pass, lit *ast.FuncLit) bool {
	found := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if sel.Sel.Name != "Lock" && sel.Sel.Name != "RLock" {
			return true
		}
		obj := pass.ObjectOf(sel.Sel)
		if obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "sync" {
			found = true
		}
		return !found
	})
	return found
}
