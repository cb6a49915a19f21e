// Package analysis is the repo-specific static-analysis suite behind
// cmd/ringvet. It enforces, at compile time, the two invariants every
// runtime guard in this tree defends dynamically: determinism (runs are
// bit-identical across engines and schedules) and an allocation-free hot
// loop. The suite is built directly on go/ast and go/types — the module is
// dependency-free by design, so it does not use golang.org/x/tools — but it
// mirrors the go/analysis API shape (Analyzer, Pass, Diagnostic) so the
// analyzers would port to a multichecker verbatim if the dependency ever
// became available.
//
// Analyzers are scoped by source directives (see directives.go):
//
//	//ring:deterministic           — ringdeterminism applies to this function
//	//ring:hotpath guard=TestName  — an allocflow root: allocflow checks it and
//	                                 everything it reaches; guard names the
//	                                 alloc-regression test covering it
//	//ring:coldpath -- reason      — allocflow neither checks nor descends here
//	//ring:ordered [-- reason]     — this range/go/select is deterministic
//	//ring:prealloc [-- reason]    — this append writes to presized backing
//	//ringvet:ignore name -- reason — suppress one analyzer on this line (for
//	                                 allocflow, also prune the line's calls
//	                                 from hot reach)
//
// ctxflow and errsentinel need no directive: their rules are sound
// everywhere.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer is one named check. The shape matches
// golang.org/x/tools/go/analysis.Analyzer so the suite reads familiarly and
// ports mechanically.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //ringvet:ignore directives.
	Name string
	// Doc is the one-paragraph description printed by ringvet -help.
	Doc string
	// Run reports diagnostics for one package via pass.Reportf.
	Run func(*Pass) error
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// Target is one type-checked package to analyze: shared FileSet, parsed
// files (with comments), and full type information. The loader
// (internal/analysis/load) produces these for real packages; vettest builds
// them for fixtures.
type Target struct {
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
}

// Pass carries one analyzer's view of one package, plus the directive index
// shared by the whole run. Prog is the whole-program view (call graph,
// alias summaries) the interprocedural analyzers consume; it always covers
// at least the package of this Pass.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	Prog      *Program

	marks  *markIndex
	report func(Diagnostic)
}

// Reportf records a diagnostic at pos unless a //ringvet:ignore directive
// for this analyzer covers the line.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	if p.marks.suppressed(p.Fset, pos, p.Analyzer.Name) {
		return
	}
	p.report(Diagnostic{Pos: pos, Analyzer: p.Analyzer.Name, Message: fmt.Sprintf(format, args...)})
}

// FuncMarks returns the directive marks of the innermost marked function
// declaration whose body encloses pos (function literals inherit the marks
// of the function they appear in). The zero Marks means "unannotated".
func (p *Pass) FuncMarks(pos token.Pos) Marks {
	return p.marks.enclosing(pos)
}

// Ordered reports whether pos's line (or the line above it) carries a
// //ring:ordered directive.
func (p *Pass) Ordered(pos token.Pos) bool {
	return p.marks.lineMarked(p.Fset, pos, markOrdered)
}

// Prealloc reports whether pos's line (or the line above it) carries a
// //ring:prealloc directive.
func (p *Pass) Prealloc(pos token.Pos) bool {
	return p.marks.lineMarked(p.Fset, pos, markPrealloc)
}

// RunAnalyzers runs every analyzer over one target and returns the combined
// diagnostics sorted by position. The program view the interprocedural
// analyzers need is built from the single target; use RunProgram when more
// than one package is in play so cross-package edges resolve.
func RunAnalyzers(t Target, analyzers []*Analyzer) ([]Diagnostic, error) {
	return RunProgram([]Target{t}, analyzers)
}

// RunProgram builds the whole-program view over the targets, runs every
// analyzer over every target, and returns the combined diagnostics sorted
// by position. Analyzer errors (not findings — failures to run) abort the
// whole call.
func RunProgram(targets []Target, analyzers []*Analyzer) ([]Diagnostic, error) {
	prog, err := BuildProgram(targets)
	if err != nil {
		return nil, err
	}
	var diags []Diagnostic
	for i := range prog.Targets {
		t := &prog.Targets[i]
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:  a,
				Fset:      t.Fset,
				Files:     t.Files,
				Pkg:       t.Pkg,
				TypesInfo: t.Info,
				Prog:      prog,
				marks:     prog.marks[t],
				report:    func(d Diagnostic) { diags = append(diags, d) },
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %w", a.Name, err)
			}
		}
	}
	sort.SliceStable(diags, func(i, j int) bool { return diags[i].Pos < diags[j].Pos })
	return diags, nil
}

// walkStack is ast.Inspect with an ancestor stack: fn receives each node
// together with its ancestors, outermost first (the stack excludes n
// itself). Returning false skips n's children.
func walkStack(root ast.Node, fn func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		descend := fn(n, stack)
		if !descend {
			return false
		}
		stack = append(stack, n)
		return true
	})
}

// calleeFunc resolves a call expression to the *types.Func it invokes, or
// nil for calls through function-typed variables, builtins and conversions.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	case *ast.IndexExpr: // generic instantiation f[T](...)
		if base, ok := ast.Unparen(fun.X).(*ast.Ident); ok {
			id = base
		} else if sel, ok := ast.Unparen(fun.X).(*ast.SelectorExpr); ok {
			id = sel.Sel
		}
	}
	if id == nil {
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// calleePkgFunc returns the package path and name of a called package-level
// function, or "" when the call is not one (methods, builtins, locals).
func calleePkgFunc(info *types.Info, call *ast.CallExpr) (pkgPath, name string) {
	fn := calleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil {
		return "", ""
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		return "", "" // method: the receiver, not the package, owns determinism
	}
	return fn.Pkg().Path(), fn.Name()
}

// isErrorType reports whether t implements the built-in error interface.
// Concrete error implementations count too: comparing them with == is
// exactly the anti-pattern errsentinel exists to catch.
func isErrorType(t types.Type) bool {
	if t == nil {
		return false
	}
	errIface, ok := types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
	if !ok {
		return false
	}
	return types.Implements(t, errIface)
}

// exprString renders an expression for diagnostics.
func exprString(e ast.Expr) string { return types.ExprString(e) }

// isNilExpr reports whether e is the untyped nil literal.
func isNilExpr(info *types.Info, e ast.Expr) bool {
	if id, ok := ast.Unparen(e).(*ast.Ident); ok && id.Name == "nil" {
		_, isNil := info.Uses[id].(*types.Nil)
		return isNil
	}
	return false
}
