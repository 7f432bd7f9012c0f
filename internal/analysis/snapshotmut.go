package analysis

import (
	"go/ast"
	"go/types"
)

// SnapshotmutConfig configures the snapshotmut analyzer.
type SnapshotmutConfig struct {
	// Protected names the immutable-after-publish types, as
	// "pkg/path.TypeName" entries (package part matches by trailing path
	// components).
	Protected []string
	// Allowed names the constructor/builder functions permitted to write
	// protected values: "pkg.Func", "pkg.Recv.Method", or "pkg.*" for a
	// whole package. Functions annotated //tdh:mutator are also allowed.
	Allowed []string
	// Writers names methods that write their receiver ("pkg.Recv.Method"):
	// calling one on a receiver reached through a protected value is a write
	// to that value, like an assignment through it. The copy-on-write
	// containers under the model and the plan are written only this way.
	Writers []string
}

// Snapshotmut flags writes to fields or elements of protected types —
// published snapshots, plans, models, indexes and engine states — outside
// the allowlisted constructors. The server's lock-free read story depends
// on these values being frozen the instant they are published; a single
// stray write is a data race the -race jobs can only catch probabilistically.
//
// The check is intraprocedural and type-driven: an lvalue whose
// selector/index chain is rooted at a protected-typed value is a protected
// write, and locals assigned from such chains are tracked as aliases
// (mu := p.Mu[o]; mu[i] = x is still a write into the plan). Chains broken
// by a function call are not tracked — append([]T(nil), s...) copies are
// legitimately fresh. A call to a configured writer method (cfg.Writers) on a
// receiver reached through such a chain counts as a write too.
func Snapshotmut(cfg SnapshotmutConfig) *Analyzer {
	protected := parseSymbols(cfg.Protected)
	allowed := parseSymbols(cfg.Allowed)
	writers := parseSymbols(cfg.Writers)
	return &Analyzer{
		Name: "snapshotmut",
		Doc:  "flag mutations of published snapshot/plan/model values outside constructors",
		Run: func(pass *Pass) error {
			forEachFuncDecl(pass.Files, func(fd *ast.FuncDecl) {
				if _, ok := pass.Notes.FuncNote(fd, noteMutator); ok {
					return
				}
				if funcMatches(declaredFunc(pass.TypesInfo, fd), allowed) {
					return
				}
				checkFuncMutations(pass, fd, protected, writers)
			})
			return nil
		},
	}
}

func checkFuncMutations(pass *Pass, fd *ast.FuncDecl, protected, writers []symbol) {
	tainted := taintedAliases(pass.TypesInfo, fd, protected)
	report := func(node ast.Node, what string) {
		if _, ok := pass.Notes.At(node.Pos(), noteMutator); ok {
			return
		}
		pass.Reportf(node.Pos(), "write to %s mutates a published value outside an allowed constructor (annotate the function //tdh:mutator <why> if this is pre-publication construction)", what)
	}
	ast.Inspect(fd, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if name, ok := protectedWrite(pass.TypesInfo, lhs, protected, tainted); ok {
					report(n, name)
					break
				}
			}
		case *ast.IncDecStmt:
			if name, ok := protectedWrite(pass.TypesInfo, n.X, protected, tainted); ok {
				report(n, name)
			}
		case *ast.CallExpr:
			// copy(dst, …) and clear(m) write through their first argument.
			if b := builtinOf(pass.TypesInfo, n); b != nil && (b.Name() == "copy" || b.Name() == "clear") && len(n.Args) > 0 {
				if name, ok := protectedRoot(pass.TypesInfo, n.Args[0], protected, tainted); ok {
					report(n, b.Name()+" into "+name)
				}
			}
			// v.Set(…) on a writer method writes through its receiver.
			if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok && funcMatches(calleeOf(pass.TypesInfo, n), writers) {
				if name, ok := protectedRoot(pass.TypesInfo, sel.X, protected, tainted); ok {
					report(n, sel.Sel.Name+" on "+name)
				}
			}
		}
		return true
	})
}

// protectedWrite reports whether lhs writes through a protected value. A
// plain identifier is a rebind of a local, never a protected write; only
// selector, index and dereference lvalues can reach protected state. The
// lvalue's own type is deliberately not checked — `p.idx = newIdx`
// rebinds a pointer field to a fresh value, which is exactly how the
// pipeline publishes; only the chain it writes THROUGH must be clean.
func protectedWrite(info *types.Info, lhs ast.Expr, protected []symbol, tainted map[types.Object]bool) (string, bool) {
	switch e := ast.Unparen(lhs).(type) {
	case *ast.SelectorExpr:
		return protectedRoot(info, e.X, protected, tainted)
	case *ast.IndexExpr:
		return protectedRoot(info, e.X, protected, tainted)
	case *ast.StarExpr:
		return protectedRoot(info, e.X, protected, tainted)
	}
	return "", false
}

// protectedRoot walks the pure selector/index/deref chain of expr and
// reports whether the expression or any base along the chain has a
// protected type or is a tracked alias of one. The walk stops at anything
// that is not a pure chain link (calls, literals): a value that passed
// through a function is assumed fresh.
func protectedRoot(info *types.Info, expr ast.Expr, protected []symbol, tainted map[types.Object]bool) (string, bool) {
	for {
		expr = ast.Unparen(expr)
		if name, ok := protectedTypeName(info.TypeOf(expr), protected); ok {
			return name, true
		}
		switch e := expr.(type) {
		case *ast.SelectorExpr:
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.StarExpr:
			expr = e.X
		case *ast.Ident:
			if obj := info.ObjectOf(e); obj != nil && tainted[obj] {
				return "an alias of protected state (" + e.Name + ")", true
			}
			return "", false
		default:
			return "", false
		}
	}
}

// protectedTypeName reports whether t (or the type it points to) is one of
// the protected named types.
func protectedTypeName(t types.Type, protected []symbol) (string, bool) {
	if t == nil {
		return "", false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok && namedMatches(n, protected) {
		return n.Obj().Pkg().Name() + "." + n.Obj().Name(), true
	}
	return "", false
}

// taintedAliases collects local variables assigned from pure
// selector/index chains rooted at protected values. Two passes so a chain
// through one intermediate alias (mu := p.Mu; row := mu[i]) is caught;
// deeper alias ladders are vanishingly rare in this tree.
func taintedAliases(info *types.Info, fd *ast.FuncDecl, protected []symbol) map[types.Object]bool {
	tainted := make(map[types.Object]bool)
	for range 2 {
		ast.Inspect(fd, func(n ast.Node) bool {
			if rs, ok := n.(*ast.RangeStmt); ok {
				// for _, row := range p.Mu: the value variable aliases
				// the protected backing array when its type does.
				if _, ok := protectedRoot(info, rs.X, protected, tainted); ok {
					if id, ok := rs.Value.(*ast.Ident); ok && aliasableType(info.TypeOf(id)) {
						if obj := info.ObjectOf(id); obj != nil {
							tainted[obj] = true
						}
					}
				}
				return true
			}
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != len(as.Rhs) {
				return true
			}
			for i, lhs := range as.Lhs {
				id, ok := ast.Unparen(lhs).(*ast.Ident)
				if !ok || id.Name == "_" {
					continue
				}
				if !aliasableType(info.TypeOf(as.Rhs[i])) {
					continue
				}
				if _, ok := protectedRoot(info, as.Rhs[i], protected, tainted); ok {
					if obj := info.ObjectOf(id); obj != nil {
						tainted[obj] = true
					}
				}
			}
			return true
		})
	}
	return tainted
}

// aliasableType reports whether a value of type t shares memory with its
// source: slices, maps and pointers alias; scalars and strings are copies.
func aliasableType(t types.Type) bool {
	if t == nil {
		return false
	}
	switch t.Underlying().(type) {
	case *types.Slice, *types.Map, *types.Pointer:
		return true
	}
	return false
}
