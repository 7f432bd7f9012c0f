// Package analysis is the repo's in-tree static-analysis suite: a minimal
// go/analysis-shaped framework built on the standard library alone, plus
// the invariant analyzers that make the scale story checkable at compile
// time. The real golang.org/x/tools framework is deliberately not vendored
// — the module has zero dependencies and keeps it that way; the subset
// needed here (per-package syntax + types passes, a testdata harness, the
// `go vet -vettool` unitchecker protocol) is small and self-contained.
//
// The enforced invariants (see each analyzer's Doc):
//
//   - snapshotmut: published Snapshot/State/Plan/Model/Index values are
//     immutable outside an allowlist of constructors.
//   - detreplay: replayed and published state is bit-deterministic — no
//     wall clock, no global math/rand, no uncanonicalized map iteration
//     in the inference/serving packages.
//   - pipelineonly: state-mutating entry points are called only from the
//     pipeline goroutine's call graph, never from HTTP handlers.
//   - hotpathalloc: functions marked //tdh:hotpath stay allocation-free.
//   - tdhnote: the //tdh: annotations themselves are well-formed and
//     carry the justification the conventions require.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// An Analyzer describes one invariant check. Mirrors the shape of
// golang.org/x/tools/go/analysis.Analyzer so the suite can migrate to the
// real framework if the dependency ever becomes available.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// A Pass provides one analyzer with one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	Notes     *Notes
	Report    func(Diagnostic)
}

// A Diagnostic is one finding at one position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Suite returns the full analyzer suite with this repo's default
// configuration — what cmd/tdhlint runs.
func Suite() []*Analyzer {
	return []*Analyzer{
		TdhNote(),
		Snapshotmut(DefaultSnapshotmut()),
		Detreplay(DefaultDetreplay()),
		Pipelineonly(DefaultPipelineonly()),
		Hotpathalloc(DefaultHotpathalloc()),
	}
}

// A symbol is a parsed config entry naming a package-level function
// ("pkg/path.Name"), a method ("pkg/path.Recv.Name"), a type
// ("pkg/path.Name"), or a whole package ("pkg/path.*"). The package part
// matches by trailing path components, so "internal/assign.Plan" matches
// both "repro/internal/assign".Plan and a testdata package "assign".
type symbol struct {
	pkg  string // package path or path suffix
	recv string // receiver type name, "" for package-level functions/types
	name string // function/method/type name, "*" for any
}

func parseSymbol(s string) symbol {
	head, tail := "", s
	if i := strings.LastIndex(s, "/"); i >= 0 {
		head, tail = s[:i+1], s[i+1:]
	}
	parts := strings.Split(tail, ".")
	switch len(parts) {
	case 2:
		return symbol{pkg: head + parts[0], name: parts[1]}
	case 3:
		return symbol{pkg: head + parts[0], recv: parts[1], name: parts[2]}
	}
	return symbol{pkg: s, name: "*"}
}

func parseSymbols(entries []string) []symbol {
	out := make([]symbol, 0, len(entries))
	for _, e := range entries {
		out = append(out, parseSymbol(e))
	}
	return out
}

// pathMatches reports whether pkgPath equals part or ends with "/"+part —
// whole trailing path components only, so "server" never matches
// "observer".
func pathMatches(pkgPath, part string) bool {
	return pkgPath == part || strings.HasSuffix(pkgPath, "/"+part)
}

// recvTypeName returns the name of fn's receiver type ("" for
// package-level functions), peeling one pointer.
func recvTypeName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

// funcMatches reports whether fn matches any of the symbols.
func funcMatches(fn *types.Func, syms []symbol) bool {
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	path, recv := fn.Pkg().Path(), recvTypeName(fn)
	for _, s := range syms {
		if !pathMatches(path, s.pkg) {
			continue
		}
		if s.name == "*" {
			return true
		}
		if s.name != fn.Name() {
			continue
		}
		if s.recv == "" || s.recv == recv {
			return true
		}
	}
	return false
}

// namedMatches reports whether the named type matches any symbol.
func namedMatches(n *types.Named, syms []symbol) bool {
	obj := n.Obj()
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	path := obj.Pkg().Path()
	for _, s := range syms {
		if s.recv == "" && s.name == obj.Name() && pathMatches(path, s.pkg) {
			return true
		}
	}
	return false
}

// calleeOf resolves the *types.Func a call invokes, or nil for builtins,
// type conversions and calls through function-typed values.
func calleeOf(info *types.Info, call *ast.CallExpr) *types.Func {
	var fn *types.Func
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ = info.Uses[fun].(*types.Func)
	case *ast.SelectorExpr:
		fn, _ = info.Uses[fun.Sel].(*types.Func)
	}
	if fn != nil {
		// A method of an instantiated generic type is its own object; the
		// declaration the analyzers key on is its origin.
		fn = fn.Origin()
	}
	return fn
}

// builtinOf resolves the *types.Builtin a call invokes, or nil.
func builtinOf(info *types.Info, call *ast.CallExpr) *types.Builtin {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return nil
	}
	b, _ := info.Uses[id].(*types.Builtin)
	return b
}

// forEachFuncDecl invokes f for every function declaration with a body.
func forEachFuncDecl(files []*ast.File, f func(*ast.FuncDecl)) {
	for _, file := range files {
		for _, d := range file.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				f(fd)
			}
		}
	}
}

// declaredFunc returns the *types.Func a declaration defines.
func declaredFunc(info *types.Info, fd *ast.FuncDecl) *types.Func {
	fn, _ := info.Defs[fd.Name].(*types.Func)
	return fn
}
