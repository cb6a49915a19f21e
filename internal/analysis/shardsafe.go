package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// ShardSafe checks the two access disciplines the sharded engine's
// correctness rests on (internal/ring/sharded.go):
//
//  1. Atomic discipline: a struct field that is accessed through sync/atomic
//     anywhere in the package (atomic.LoadInt64(&x.f), atomic.AddInt32, ...)
//     must be accessed through sync/atomic *everywhere*. One plain read of
//     such a field is a data race the race detector only catches on the
//     interleavings a test happens to drive; this rejects the construct on
//     every path. Fields declared with the atomic.* wrapper types are safe
//     by construction (their value is unexported) and are instead covered
//     by rule 2 where ownership matters.
//
//  2. SPSC ownership: a field carrying //ring:owner producer|consumer (the
//     head/tail counters and spill queues of the boundary rings) is half of
//     a single-producer single-consumer protocol. Mutations (plain writes,
//     or Store/Add/Swap/CompareAndSwap on an atomic.* field) are only legal
//     in functions marked with the matching //ring:producer or
//     //ring:consumer role; atomic Loads are legal from either role (the
//     consumer reads the producer's published tail and vice versa — that IS
//     the protocol) but not from unmarked functions; any access to a plain
//     (non-atomic) owned field requires the matching role, reads included.
//
// Soundness limits: both rules are per-package (owned fields here are
// unexported, so that covers every access); "single producer" itself —
// that only one goroutine runs the producer-marked functions per ring —
// remains the runtime architecture's contract, pinned by the race-enabled
// sharded tests. Setup code that legitimately touches both sides before
// the workers launch suppresses per line with //ringvet:ignore shardsafe.
var ShardSafe = &Analyzer{
	Name: "shardsafe",
	Doc: "enforce atomic access discipline (no plain access to sync/atomic-managed fields) and " +
		"//ring:owner producer/consumer SPSC field ownership",
	Run: runShardSafe,
}

// atomicMutators are the atomic.* methods and function prefixes that write.
var atomicMutators = map[string]bool{
	"Store": true, "Add": true, "Swap": true, "CompareAndSwap": true, "Or": true, "And": true,
}

func runShardSafe(pass *Pass) error {
	owners, err := ownerFields(pass)
	if err != nil {
		return err
	}
	atomicFields, sanctioned := atomicDisciplineIndex(pass)

	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkShardAccesses(pass, fd, owners, atomicFields, sanctioned)
		}
	}
	return nil
}

// ownerFields collects //ring:owner directives from struct field comments,
// mapping each field object to its declared role.
func ownerFields(pass *Pass) (map[*types.Var]string, error) {
	owners := make(map[*types.Var]string)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					continue
				}
				for _, field := range st.Fields.List {
					role, pos, err := fieldOwnerRole(pass, field)
					if err != nil {
						return nil, err
					}
					if role == "" {
						continue
					}
					if len(field.Names) == 0 {
						return nil, fmt.Errorf("%s: ring:owner cannot mark an embedded field", pass.Fset.Position(pos))
					}
					for _, name := range field.Names {
						if v, ok := pass.TypesInfo.Defs[name].(*types.Var); ok {
							owners[v] = role
						}
					}
				}
			}
		}
	}
	return owners, nil
}

// fieldOwnerRole parses a field's doc/trailing comments for
// "//ring:owner producer|consumer".
func fieldOwnerRole(pass *Pass, field *ast.Field) (string, token.Pos, error) {
	for _, doc := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if doc == nil {
			continue
		}
		for _, c := range doc.List {
			if !strings.HasPrefix(c.Text, "//ring:owner") {
				continue
			}
			role := strings.TrimSpace(strings.TrimPrefix(c.Text, "//ring:owner"))
			if role != "producer" && role != "consumer" {
				return "", c.Pos(), fmt.Errorf("%s: ring:owner wants producer or consumer, got %q",
					pass.Fset.Position(c.Pos()), role)
			}
			return role, c.Pos(), nil
		}
	}
	return "", token.NoPos, nil
}

// atomicDisciplineIndex finds every field whose address is passed to a
// sync/atomic function, and remembers those selector nodes as sanctioned so
// the enforcement walk does not flag the atomic sites themselves.
func atomicDisciplineIndex(pass *Pass) (map[*types.Var]token.Pos, map[*ast.SelectorExpr]bool) {
	fields := make(map[*types.Var]token.Pos)
	sanctioned := make(map[*ast.SelectorExpr]bool)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if pkg, _ := calleePkgFunc(pass.TypesInfo, call); pkg != "sync/atomic" {
				return true
			}
			for _, arg := range call.Args {
				un, ok := ast.Unparen(arg).(*ast.UnaryExpr)
				if !ok || un.Op != token.AND {
					continue
				}
				sel, ok := ast.Unparen(un.X).(*ast.SelectorExpr)
				if !ok {
					continue
				}
				if v := fieldVar(pass, sel); v != nil {
					if _, seen := fields[v]; !seen {
						fields[v] = sel.Pos()
					}
					sanctioned[sel] = true
				}
			}
			return true
		})
	}
	return fields, sanctioned
}

// checkShardAccesses enforces both disciplines over one function body.
func checkShardAccesses(pass *Pass, fd *ast.FuncDecl, owners map[*types.Var]string,
	atomicFields map[*types.Var]token.Pos, sanctioned map[*ast.SelectorExpr]bool) {

	walkStack(fd.Body, func(n ast.Node, stack []ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		v := fieldVar(pass, sel)
		if v == nil {
			return true
		}

		// Rule 1: plain access to a sync/atomic-managed field.
		if firstPos, tracked := atomicFields[v]; tracked && !sanctioned[sel] {
			pass.Reportf(sel.Pos(), "plain access to field %s, which is accessed via sync/atomic at %s; every access must go through sync/atomic",
				exprString(sel), pass.Fset.Position(firstPos))
		}

		// Rule 2: //ring:owner role discipline.
		role, owned := owners[v]
		if !owned {
			return true
		}
		marks := pass.FuncMarks(sel.Pos())
		kind := accessKind(pass, sel, stack, atomicFields, v)
		switch kind {
		case accessAtomicLoad:
			if !marks.Producer && !marks.Consumer {
				pass.Reportf(sel.Pos(), "%s reads %s-owned field %s but carries neither //ring:producer nor //ring:consumer; only the two SPSC sides may touch it",
					fd.Name.Name, role, exprString(sel))
			}
		case accessMutate:
			if !roleMatches(marks, role) {
				pass.Reportf(sel.Pos(), "%s mutates %s, which //ring:owner assigns to the %s side; mark the function //ring:%s or move the write",
					fd.Name.Name, exprString(sel), role, role)
			}
		case accessPlain:
			if !roleMatches(marks, role) {
				pass.Reportf(sel.Pos(), "%s accesses %s-owned field %s from outside its owning side (//ring:owner); only //ring:%s functions may touch it",
					fd.Name.Name, role, exprString(sel), role)
			}
		}
		return true
	})
}

type shardAccess int

const (
	accessPlain shardAccess = iota
	accessAtomicLoad
	accessMutate
)

// accessKind classifies how sel uses the field: an atomic Load, a mutation
// (plain assignment target, ++/--, atomic mutator method or sync/atomic
// mutator call on its address), or a plain use.
func accessKind(pass *Pass, sel *ast.SelectorExpr, stack []ast.Node,
	atomicFields map[*types.Var]token.Pos, v *types.Var) shardAccess {

	isAtomicField := isAtomicWrapperType(v.Type())
	if _, tracked := atomicFields[v]; tracked {
		isAtomicField = true
	}
	if len(stack) > 0 {
		switch parent := stack[len(stack)-1].(type) {
		case *ast.SelectorExpr:
			// q.head.Load() — sel is parent.X, parent.Sel is the method.
			if parent.X == ast.Expr(sel) && isAtomicWrapperType(v.Type()) {
				name := parent.Sel.Name
				if name == "Load" {
					return accessAtomicLoad
				}
				for m := range atomicMutators {
					if strings.HasPrefix(name, m) {
						return accessMutate
					}
				}
			}
		case *ast.UnaryExpr:
			// &q.head handed to sync/atomic: classify by the called function.
			if parent.Op == token.AND && len(stack) > 1 {
				if call, ok := stack[len(stack)-2].(*ast.CallExpr); ok {
					if pkg, name := calleePkgFunc(pass.TypesInfo, call); pkg == "sync/atomic" {
						if strings.HasPrefix(name, "Load") {
							return accessAtomicLoad
						}
						return accessMutate
					}
				}
			}
		case *ast.AssignStmt:
			for _, lhs := range parent.Lhs {
				if ast.Unparen(lhs) == ast.Expr(sel) {
					return accessMutate
				}
			}
		case *ast.IncDecStmt:
			if ast.Unparen(parent.X) == ast.Expr(sel) {
				return accessMutate
			}
		}
	}
	if isAtomicField {
		// Touching an atomic field other than through Load/Store methods
		// (copying it, ranging it) counts as a plain access.
		return accessPlain
	}
	return accessPlain
}

// roleMatches reports whether the function's marks include the owning role.
func roleMatches(m Marks, role string) bool {
	return (role == "producer" && m.Producer) || (role == "consumer" && m.Consumer)
}

// isAtomicWrapperType reports whether t is one of sync/atomic's wrapper
// types (atomic.Int64, atomic.Pointer[T], ...).
func isAtomicWrapperType(t types.Type) bool {
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Origin().Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync/atomic"
}

// fieldVar resolves a selector to the struct field it denotes, or nil.
func fieldVar(pass *Pass, sel *ast.SelectorExpr) *types.Var {
	v, _ := pass.TypesInfo.Uses[sel.Sel].(*types.Var)
	if v == nil || !v.IsField() {
		return nil
	}
	return v
}
