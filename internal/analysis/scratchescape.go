package analysis

import (
	"go/ast"
	"go/types"
)

// Scratchescape flags stores that let a *core.Scratch — or anything
// borrowed from one (a slot pointer, a sub-slice of its buffers) —
// outlive the call that was lent it. A Scratch is single-owner by
// contract ("must not be shared between concurrent queries"); the two
// sanctioned owners are the method receiver that holds it for reuse
// (a session worker, a QueryExec) and sync.Pool hand-off.
// Everything else — package-level variables, fields of foreign structs,
// containers not rooted at the receiver — turns buffer reuse into
// cross-query aliasing, which the scratch-reuse audits can only catch
// after the corruption happens.
//
// Flagged assignment targets, when the stored value is Scratch-typed or
// a selector/index/slice chain rooted at a Scratch-typed expression:
//
//   - package-level variables (any package);
//   - field, index, or dereference chains rooted at a pointer-typed
//     function parameter other than the method receiver (caller-owned
//     memory that survives the return). Chains rooted at locals or at
//     the receiver stay silent: a local struct value dies with the
//     frame, and the receiver is the sanctioned arena.
var Scratchescape = &Analyzer{
	Name: "scratchescape",
	Doc:  "flag stores of *core.Scratch (or values borrowed from one) that outlive the call",
	Run:  runScratchescape,
}

// scratchTypePath identifies the guarded type.
const (
	scratchTypePath = "tnnbcast/internal/core"
	scratchTypeName = "Scratch"
)

func runScratchescape(pass *Pass) error {
	enclosingFuncs(pass.Files, func(fn *ast.FuncDecl) {
		recv := receiverIdent(fn)
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			assign, isAssign := n.(*ast.AssignStmt)
			if !isAssign || len(assign.Lhs) != len(assign.Rhs) {
				return true
			}
			for i, rhs := range assign.Rhs {
				if !scratchValued(pass, rhs) {
					continue
				}
				lhs := assign.Lhs[i]
				if escapes, what := escapingTarget(pass, fn, lhs, recv); escapes {
					pass.Reportf(assign.Pos(), "scratch-backed value stored into %s outlives the call that borrowed it; a Scratch has one owner (the receiver that reuses it)", what)
				}
			}
			return true
		})
	})
	return nil
}

// receiverIdent returns fn's receiver identifier, or "" for plain
// functions and anonymous receivers.
func receiverIdent(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 || len(fn.Recv.List[0].Names) == 0 {
		return ""
	}
	return fn.Recv.List[0].Names[0].Name
}

// scratchValued reports whether expr is of Scratch type, or is a
// selector/index/slice chain rooted at a Scratch-typed expression
// (i.e. borrowed storage).
func scratchValued(pass *Pass, expr ast.Expr) bool {
	for e := ast.Unparen(expr); e != nil; {
		if isScratchType(pass.TypeOf(e)) {
			return true
		}
		switch x := e.(type) {
		case *ast.SelectorExpr:
			e = ast.Unparen(x.X)
		case *ast.IndexExpr:
			e = ast.Unparen(x.X)
		case *ast.SliceExpr:
			e = ast.Unparen(x.X)
		case *ast.StarExpr:
			e = ast.Unparen(x.X)
		case *ast.UnaryExpr:
			e = ast.Unparen(x.X)
		default:
			return false
		}
	}
	return false
}

// isScratchType unwraps pointers and matches core.Scratch.
func isScratchType(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, isPtr := t.Underlying().(*types.Pointer); isPtr {
		t = p.Elem()
	}
	named, isNamed := t.(*types.Named)
	if !isNamed {
		return false
	}
	obj := named.Obj()
	return obj.Name() == scratchTypeName && obj.Pkg() != nil && obj.Pkg().Path() == scratchTypePath
}

// escapingTarget decides whether storing into lhs lets the value
// outlive the call: a package-level variable, or a chain rooted at a
// pointer-typed parameter other than the receiver. Stores into locals
// and receiver-rooted state stay silent.
func escapingTarget(pass *Pass, fn *ast.FuncDecl, lhs ast.Expr, recv string) (escapes bool, what string) {
	base := rootIdent(lhs)
	if base == nil {
		return false, ""
	}
	obj := pass.TypesInfo.Uses[base]
	if obj == nil {
		obj = pass.TypesInfo.Defs[base]
	}
	if pn, isPkg := obj.(*types.PkgName); isPkg {
		return true, "package-level state of " + pn.Imported().Path()
	}
	v, isVar := obj.(*types.Var)
	if !isVar {
		return false, ""
	}
	if v.Parent() == pass.Pkg.Scope() {
		return true, "package-level variable " + base.Name
	}
	if _, direct := lhs.(*ast.Ident); direct {
		return false, "" // plain local (or shadowing define): dies with the call
	}
	if base.Name == recv {
		return false, "" // receiver-owned state: the sanctioned arena
	}
	if paramNames(fn)[base.Name] {
		if _, isPtr := v.Type().Underlying().(*types.Pointer); isPtr {
			return true, "caller-owned memory behind parameter " + base.Name
		}
	}
	return false, ""
}

// paramNames collects fn's parameter identifiers.
func paramNames(fn *ast.FuncDecl) map[string]bool {
	out := make(map[string]bool)
	if fn.Type.Params == nil {
		return out
	}
	for _, f := range fn.Type.Params.List {
		for _, n := range f.Names {
			out[n.Name] = true
		}
	}
	return out
}

// rootIdent returns the base identifier of a selector/index/deref
// chain, or nil.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}
