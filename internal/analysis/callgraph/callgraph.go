// Package callgraph builds the static call graph of one package: for
// every declared function it records each call site and the function
// object the site statically resolves to. Resolution is deliberately
// conservative:
//
//   - direct calls (f(...)) and method calls on concrete receivers
//     (x.M(...), including promoted methods) resolve to their
//     *types.Func — these are the edges interprocedural analyzers may
//     trust;
//   - calls through interface methods, function-typed values, and
//     method expressions produce an edge with a nil Callee — the
//     conservative fallback. Analyzers must treat such sites as "could
//     call anything" (noalloc documents that its transitive check does
//     not chase them; the 0 allocs/op tests cover dynamic dispatch at
//     runtime);
//   - conversions and builtins are not calls and produce no edge.
//
// Call sites inside function literals are attributed to the enclosing
// declared function: the graph answers "what can running this function
// reach", and a literal's body is code the enclosing function created.
// (Whether the literal runs during the call is an analyzer-level
// question; lockorder, which cares, does its own closure handling.)
package callgraph

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"repro/internal/analysis"
)

// Edge is one call site attributed to a declared function.
type Edge struct {
	Caller *types.Func
	// Callee is the statically resolved target, nil for dynamic sites
	// (interface dispatch, func values).
	Callee *types.Func
	Site   *ast.CallExpr
	Pos    token.Pos
	// InGo marks sites spawned by a go statement: the call happens, but
	// not during the caller's own execution.
	InGo bool
}

// Graph is the static call graph of one package.
type Graph struct {
	edges map[*types.Func][]Edge
	funcs []*types.Func
}

// Build constructs the call graph of pkg.
func Build(pkg *analysis.Package) *Graph {
	return BuildInfo(pkg.Info, pkg.Files)
}

// BuildInfo constructs the call graph from an analysis pass's view of a
// package (its files plus type info).
func BuildInfo(info *types.Info, files []*ast.File) *Graph {
	g := &Graph{edges: make(map[*types.Func][]Edge)}
	for _, f := range files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			caller, ok := info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			g.funcs = append(g.funcs, caller)
			g.walk(info, caller, fd.Body, false)
		}
	}
	sort.Slice(g.funcs, func(i, j int) bool { return g.funcs[i].Pos() < g.funcs[j].Pos() })
	return g
}

func (g *Graph) walk(info *types.Info, caller *types.Func, n ast.Node, inGo bool) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			// Attribute everything under the go statement (the spawned
			// call and its argument expressions) with the InGo mark, then
			// stop this walk from descending into it again.
			g.walk(info, caller, n.Call, true)
			return false
		case *ast.CallExpr:
			if edge, ok := resolve(info, caller, n, inGo); ok {
				g.edges[caller] = append(g.edges[caller], edge)
			}
		}
		return true
	})
}

// resolve classifies one call expression. The second result is false
// for non-calls (conversions, builtins).
func resolve(info *types.Info, caller *types.Func, call *ast.CallExpr, inGo bool) (Edge, bool) {
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		return Edge{}, false // conversion
	}
	if _, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		// Directly invoked literal: its body is walked and attributed to
		// the enclosing function already, so the invocation is not an
		// edge to anywhere else.
		return Edge{}, false
	}
	edge := Edge{Caller: caller, Site: call, Pos: call.Pos(), InGo: inGo}
	switch obj := analysis.Callee(info, call).(type) {
	case *types.Builtin:
		return Edge{}, false
	case *types.Func:
		// An interface method resolves to the interface's declaration,
		// not a body: dynamic dispatch, conservative fallback.
		if recv := obj.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
			return edge, true
		}
		edge.Callee = obj
		return edge, true
	default:
		// Func-typed variable, field, or parenthesized expression:
		// dynamic.
		return edge, true
	}
}

// Calls returns the call sites attributed to caller, in source order.
func (g *Graph) Calls(caller *types.Func) []Edge {
	return g.edges[caller]
}

// Functions returns every declared function with a body, in source
// order.
func (g *Graph) Functions() []*types.Func {
	return g.funcs
}

// StaticCallees returns the deduplicated statically resolved targets of
// caller, excluding go-spawned sites, in first-call order.
func (g *Graph) StaticCallees(caller *types.Func) []*types.Func {
	seen := map[*types.Func]bool{}
	var out []*types.Func
	for _, e := range g.edges[caller] {
		if e.Callee == nil || e.InGo || seen[e.Callee] {
			continue
		}
		seen[e.Callee] = true
		out = append(out, e.Callee)
	}
	return out
}
