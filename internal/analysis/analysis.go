// Package analysis is a small static-analysis framework over the Go
// standard library only (go/parser, go/ast, go/types, go/importer — no
// external dependencies, matching the repo's from-scratch ethos). It loads
// every package of the module, type-checks it, and runs a registry of
// repo-specific analyzers whose findings cmd/gridvet reports as
// "file:line:col: [analyzer] message".
//
// The flagship analyzer, sharedwrite, mechanizes the §6.2 discipline the
// paper's parallelization depends on: loop bodies handed to
// sched.ForStatsCtx/ForTilesCtx — the runner's only loops, so every parallel
// region of the solver — or launched with go must not write closure-captured
// state unless the write is partitioned by the loop index or guarded by a
// sync primitive. The first-wave analyzers encode numerical-kernel
// discipline: no floating-point ==, no dropped errors, no naive kernel-term
// accumulation where the Kahan helper exists, no math.Pow with small
// constant exponents in hot paths. The second wave mechanizes the
// concurrency- and context-discipline invariants the serving stack
// introduced: ctxflow (contexts are threaded, never minted mid-library),
// panicerr (containment errors from sched/sweep/the facade are checked and
// matched through errors.As/Is), lockdiscipline (locks are not copied,
// are released on every path, and fields are not accessed both atomically
// and plainly), and goleak (library goroutines carry a ctx, a done
// channel, or a WaitGroup join).
//
// Deliberate violations are annotated in source with
//
//	//lint:ignore <analyzer> <reason>
//
// on the offending line or the line directly above it; see ignore.go.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer is one named check run over every loaded package.
type Analyzer struct {
	// Name is the identifier used in findings and //lint:ignore directives.
	Name string
	// Doc is a one-line description for gridvet -list.
	Doc string
	// Run inspects the package behind pass and reports findings.
	Run func(pass *Pass)
}

// A Finding is one diagnostic at a source position.
type Finding struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String renders the finding in the canonical gridvet output form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Analyzer, f.Message)
}

// A Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package

	report func(Finding)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Finding{
		Pos:      p.Pkg.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// TypeOf returns the type of expr, or nil if the type checker did not
// record one.
func (p *Pass) TypeOf(expr ast.Expr) types.Type {
	return p.Pkg.Info.TypeOf(expr)
}

// ObjectOf returns the object an identifier denotes, or nil.
func (p *Pass) ObjectOf(id *ast.Ident) types.Object {
	return p.Pkg.Info.ObjectOf(id)
}

// InTestFile reports whether pos lies in a *_test.go file. Analyzers that
// police production code only (floatcmp, errdrop, naivesum, powconst) skip
// such positions; sharedwrite deliberately does not, since test helpers
// launch parallel loops too.
func (p *Pass) InTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Pkg.Fset.Position(pos).Filename, "_test.go")
}

// InMainPackage reports whether the package under analysis is a command
// (package main). The context- and goroutine-discipline analyzers exempt
// commands: main is exactly where context.Background belongs and where
// process-lifetime goroutines are legitimate.
func (p *Pass) InMainPackage() bool {
	return p.Pkg.Types.Name() == "main"
}

// Analyzers returns the full registry, ordered by name. Two pseudo-analyzers
// ride alongside the registry inside Run itself: "ignore" (malformed or
// unknown-name suppression directives) and "ignorehygiene" (well-formed
// directives that suppress nothing). Neither can be suppressed.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		CtxFlowAnalyzer,
		ErrDropAnalyzer,
		FloatCmpAnalyzer,
		GoLeakAnalyzer,
		LockDisciplineAnalyzer,
		NaiveSumAnalyzer,
		PanicErrAnalyzer,
		PowConstAnalyzer,
		SharedWriteAnalyzer,
	}
}

// Run executes the analyzers over the packages, applies //lint:ignore
// suppression, and returns the surviving findings sorted by position.
// Malformed or unknown-analyzer directives surface as findings of the
// pseudo-analyzer "ignore", and well-formed directives that suppressed
// nothing as findings of "ignorehygiene"; neither pseudo-analyzer can
// itself be suppressed.
func Run(pkgs []*Package, analyzers []*Analyzer) []Finding {
	known := map[string]bool{}
	for _, a := range analyzers {
		known[a.Name] = true
	}

	var raw []Finding
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer: a,
				Pkg:      pkg,
				report:   func(f Finding) { raw = append(raw, f) },
			}
			a.Run(pass)
		}
	}

	var out []Finding
	var dirs []*directive
	byFile := map[string]map[int][]*directive{}
	for _, pkg := range pkgs {
		pkgDirs := directives(pkg)
		dirs = append(dirs, pkgDirs...)
		for _, d := range pkgDirs {
			if byFile[d.pos.Filename] == nil {
				byFile[d.pos.Filename] = map[int][]*directive{}
			}
			byFile[d.pos.Filename][d.pos.Line] = append(byFile[d.pos.Filename][d.pos.Line], d)
		}
	}
	for _, f := range raw {
		if suppressed(f, byFile) {
			continue
		}
		out = append(out, f)
	}
	out = append(out, checkDirectives(dirs, known)...)
	out = append(out, staleDirectives(dirs, known)...)

	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return out
}
