package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// allocFlowName is referenced from HotReachable's suppression check; a
// named constant avoids an initialization cycle through the Analyzer value.
const allocFlowName = "allocflow"

// AllocFlow flags allocation-prone constructs on the per-message path the
// engine's alloc floors depend on (fifoQueue push/pop, Stats.record, runLoop
// delivery, the memo hit path, the SPSC boundary handoff). Its roots are the
// //ring:hotpath functions; every function statically reachable from a root
// — through the program call graph, including interface dispatch resolved
// against the module's method sets — is held to the same rules without
// needing its own directive. It is the static face of the runtime guards
// named by each directive's guard= attribute (TestEngineLoopAllocRegressionGuard
// and friends): a guard measures the paths a test drives, the analyzer
// rejects the construct on every path. A closure's captured letter check was
// once hoisted to a struct field by hand because the profiler, not an
// analyzer, caught the per-run environment allocation in a hot callee; the
// propagation makes that class of regression a compile-time finding.
//
// Flagged: fmt calls (except fmt.Errorf building a returned error — error
// construction ends the run), string concatenation, map/chan literals and
// makes, append into backing not visibly presized (first argument not a
// slice expression; assert managed growth with //ring:prealloc), interface
// conversions that box their operand (a pointer, map, channel, func or
// unsafe.Pointer goes into the interface word as it is and is not flagged),
// and capturing closures that escape or sit inside a loop.
//
// Scope and soundness:
//   - a root's findings name no chain; a reached function's findings name
//     the shortest root→function chain, so the reader can see why an
//     unannotated function is considered hot;
//   - propagation stops at //ring:coldpath functions (setup, capture and
//     error paths that share code with hot loops but never run per-message)
//     and at call sites suppressed with //ringvet:ignore allocflow: one
//     suppression both silences the finding on its line and prunes the
//     calls there from hot reach;
//   - calls through function-typed values (the token framework's
//     Fold/Encode/Decode hooks) are not resolved — those hook bodies are
//     covered by the //ring:hotpath marks on the recognizers instead;
//   - functions declared in _test.go files are never checked: the alloc
//     floor is a production invariant, and test doubles legitimately
//     allocate.
var AllocFlow = &Analyzer{
	Name: allocFlowName,
	Doc: "flag allocation-prone constructs (fmt, string concat, map literals, growing append, " +
		"boxing interface conversions, escaping closures) in //ring:hotpath functions and " +
		"everything they reach through the call graph; findings off a root carry the root chain",
	Run: runAllocFlow,
}

func runAllocFlow(pass *Pass) error {
	if pass.Prog == nil {
		return nil
	}
	reach := pass.Prog.hotReachable()
	ids := make([]FuncID, 0, len(reach))
	for id := range reach {
		ids = append(ids, id)
	}
	sortFuncIDs(ids)
	for _, id := range ids {
		r := reach[id]
		fn := r.Fn
		// Only report into the package this Pass owns; the same Program is
		// shared across every target's Pass, so each function is checked
		// exactly once.
		if fn.Target.Pkg != pass.Pkg || fn.TestFile {
			continue
		}
		c := allocCheck{pass: pass}
		if !fn.Marks.Hotpath {
			c.chain = chainString(r.Via)
		}
		walkStack(fn.Decl.Body, func(n ast.Node, stack []ast.Node) bool {
			c.node(n, stack)
			return true
		})
	}
	return nil
}

// allocCheck applies the allocation rules to one hot function. chain is the
// root→function chain its findings carry; empty for a root.
type allocCheck struct {
	pass  *Pass
	chain string
}

func (c allocCheck) reportf(pos token.Pos, format string, args ...any) {
	if c.chain != "" {
		format += " [hot via %s]"
		args = append(args, c.chain)
	}
	c.pass.Reportf(pos, format, args...)
}

// node applies the allocation rules to one node.
func (c allocCheck) node(n ast.Node, stack []ast.Node) {
	pass := c.pass
	switch n := n.(type) {
	case *ast.CallExpr:
		c.call(n, stack)
	case *ast.BinaryExpr:
		if n.Op == token.ADD && isStringExpr(pass, n) && !isConstExpr(pass, n) {
			// a+b+c nests BinaryExprs sharing one position; report the chain
			// once, at its outermost node.
			if len(stack) > 0 {
				if p, ok := stack[len(stack)-1].(*ast.BinaryExpr); ok && p.Op == token.ADD && isStringExpr(pass, p) {
					return
				}
			}
			c.reportf(n.Pos(), "string concatenation allocates on the hot path; use a preallocated buffer or the bits.Writer scratch")
		}
	case *ast.AssignStmt:
		if n.Tok == token.ADD_ASSIGN && len(n.Lhs) == 1 && isStringExpr(pass, n.Lhs[0]) {
			c.reportf(n.Pos(), "string concatenation (+=) allocates on the hot path; use a preallocated buffer or the bits.Writer scratch")
		}
	case *ast.CompositeLit:
		if _, ok := pass.TypesInfo.TypeOf(n).Underlying().(*types.Map); ok {
			c.reportf(n.Pos(), "map literal allocates on the hot path; hoist it to init-time state")
		}
	case *ast.FuncLit:
		c.closure(n, stack)
	}
}

// call handles the call-shaped rules: fmt, append, make(map/chan),
// explicit and implicit interface conversions.
func (c allocCheck) call(call *ast.CallExpr, stack []ast.Node) {
	pass := c.pass
	// Explicit conversion T(x) to an interface type.
	if tv, ok := pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() {
		if types.IsInterface(tv.Type.Underlying()) && len(call.Args) == 1 && boxes(pass, call.Args[0]) {
			c.reportf(call.Pos(), "conversion to interface %s boxes its operand on the hot path", exprString(call.Fun))
		}
		return
	}

	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := pass.TypesInfo.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "append":
				if _, presized := ast.Unparen(call.Args[0]).(*ast.SliceExpr); !presized && !pass.Prealloc(call.Pos()) {
					c.reportf(call.Pos(), "append may grow %s on the hot path; append into a re-sliced scratch buffer, or assert presized backing with //ring:prealloc", exprString(call.Args[0]))
				}
			case "make":
				switch pass.TypesInfo.TypeOf(call).Underlying().(type) {
				case *types.Map:
					c.reportf(call.Pos(), "make(map) allocates on the hot path; hoist it to init-time state")
				case *types.Chan:
					c.reportf(call.Pos(), "make(chan) allocates on the hot path; hoist it to init-time state")
				}
			}
			return
		}
	}

	pkg, name := calleePkgFunc(pass.TypesInfo, call)
	if pkg == "fmt" {
		if name == "Errorf" && inReturn(stack) {
			return // constructing the error that ends the run is fine
		}
		c.reportf(call.Pos(), "fmt.%s allocates (formatting state and interface boxing) on the hot path", name)
		return
	}

	// Implicit interface conversions at the call boundary: a concrete
	// argument passed to an interface-typed parameter is boxed.
	sig, ok := pass.TypesInfo.TypeOf(call.Fun).(*types.Signature)
	if !ok || len(call.Args) == 0 {
		return
	}
	if call.Ellipsis != token.NoPos {
		return // the spread slice itself is not converted element-wise
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		}
		if pt == nil || !types.IsInterface(pt.Underlying()) {
			continue
		}
		if boxes(pass, arg) {
			c.reportf(arg.Pos(), "passing concrete %s as interface parameter boxes it on the hot path", pass.TypesInfo.TypeOf(arg))
		}
	}
}

// closure flags capturing closures that either escape (call argument,
// return value, go/defer, field/channel/global assignment) or are built
// inside a loop. A non-escaping closure bound to a local variable is
// stack-allocated and free — that is the shape memo.Key.hash and the loop's
// verdictSink rely on.
func (c allocCheck) closure(lit *ast.FuncLit, stack []ast.Node) {
	if !capturesOuter(c.pass, lit) {
		return
	}
	if escapes, how := closureEscapes(c.pass, lit, stack); escapes {
		c.reportf(lit.Pos(), "capturing closure %s on the hot path allocates its environment; pass state explicitly (see verdictSink)", how)
		return
	}
	for _, anc := range stack {
		switch anc.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			c.reportf(lit.Pos(), "capturing closure built inside a loop on the hot path allocates per iteration; hoist it out of the loop")
			return
		}
	}
}

// closureEscapes reports whether the closure's syntactic position lets it
// outlive the enclosing frame.
func closureEscapes(pass *Pass, lit *ast.FuncLit, stack []ast.Node) (bool, string) {
	if len(stack) == 0 {
		return false, ""
	}
	switch parent := stack[len(stack)-1].(type) {
	case *ast.CallExpr:
		if ast.Unparen(parent.Fun) == ast.Expr(lit) {
			return false, "" // immediately invoked
		}
		return true, "passed as a call argument"
	case *ast.ReturnStmt:
		return true, "returned"
	case *ast.GoStmt:
		return true, "launched as a goroutine"
	case *ast.DeferStmt:
		return true, "deferred"
	case *ast.SendStmt, *ast.CompositeLit, *ast.KeyValueExpr:
		return true, "stored"
	case *ast.AssignStmt:
		for i, rhs := range parent.Rhs {
			if ast.Unparen(rhs) != ast.Expr(lit) || i >= len(parent.Lhs) {
				continue
			}
			if id, ok := ast.Unparen(parent.Lhs[i]).(*ast.Ident); ok {
				if v, ok := objOf(pass, id).(*types.Var); ok && !v.IsField() && v.Parent() != pass.Pkg.Scope() {
					return false, "" // bound to a local: stays on the stack
				}
			}
			return true, "stored"
		}
	}
	return false, ""
}

// capturesOuter reports whether the literal references variables declared
// outside it (including the enclosing function's parameters and receiver).
func capturesOuter(pass *Pass, lit *ast.FuncLit) bool {
	captured := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || captured {
			return !captured
		}
		v, ok := pass.TypesInfo.Uses[id].(*types.Var)
		if !ok || v.IsField() || v.Parent() == nil || v.Parent() == types.Universe || v.Parent() == pass.Pkg.Scope() {
			return true
		}
		if v.Pos() < lit.Pos() || v.Pos() >= lit.End() {
			captured = true
		}
		return true
	})
	return captured
}

// inReturn reports whether the innermost statement on the stack is a return.
func inReturn(stack []ast.Node) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		switch stack[i].(type) {
		case *ast.ReturnStmt:
			return true
		case ast.Stmt:
			return false
		}
	}
	return false
}

// isStringExpr reports whether e's type is (an alias or named form of)
// string.
func isStringExpr(pass *Pass, e ast.Expr) bool {
	t := pass.TypesInfo.TypeOf(e)
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// isConstExpr reports whether the expression folded to a constant (constant
// concatenation happens at compile time).
func isConstExpr(pass *Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	return ok && tv.Value != nil
}

// boxes reports whether converting arg to an interface allocates: arg is a
// non-nil value of a concrete type that is not pointer-shaped. A pointer,
// map, channel, func or unsafe.Pointer goes into the interface's data word
// as it is.
func boxes(pass *Pass, arg ast.Expr) bool {
	if isNilExpr(pass.TypesInfo, arg) {
		return false
	}
	tv, ok := pass.TypesInfo.Types[arg]
	if !ok || tv.Type == nil || tv.IsType() {
		return false
	}
	// A generic type parameter's boxing depends on the instantiation, so
	// the check stays silent.
	if _, ok := tv.Type.(*types.TypeParam); ok {
		return false
	}
	switch u := tv.Type.Underlying().(type) {
	case *types.Interface, *types.Pointer, *types.Map, *types.Chan, *types.Signature:
		return false
	case *types.Basic:
		return u.Kind() != types.UntypedNil && u.Kind() != types.UnsafePointer
	}
	return true
}

// objOf resolves an identifier to its object (uses first, then defs).
func objOf(pass *Pass, id *ast.Ident) types.Object {
	if o := pass.TypesInfo.Uses[id]; o != nil {
		return o
	}
	return pass.TypesInfo.Defs[id]
}

// hotReachable caches the reachability computation on the Program: every
// target's allocflow Pass shares one traversal.
func (prog *Program) hotReachable() map[FuncID]*HotReach {
	if prog.hotReach == nil {
		prog.hotReach = prog.HotReachable()
	}
	return prog.hotReach
}

// chainString renders a Via chain compactly: package paths dropped, the
// module-unique function names kept.
func chainString(via []FuncID) string {
	parts := make([]string, len(via))
	for i, id := range via {
		s := string(id)
		if j := strings.LastIndexByte(s, '/'); j >= 0 {
			s = s[j+1:]
		}
		// s is now "pkg.(Recv).Name" or "pkg.Name"; keep it whole — the
		// package short name disambiguates cross-package chains.
		parts[i] = s
	}
	return strings.Join(parts, " → ")
}
