// Package noalloc is the compile-time companion to the 0 allocs/op
// tests (AllocsPerRun bars in core and localize). Functions annotated
//
//	//lad:noalloc
//
// are the measured hot paths (probe kernels, per-observation scoring,
// log-table evaluation); inside their bodies the analyzer flags every
// construct that forces or risks a heap allocation:
//
//   - new(T) and make(...) — except make under the amortized grow-guard
//     idiom `if cap(buf) < n { buf = make(...) }`, which is how the hot
//     paths size their reusable buffers on first touch
//   - slice and map composite literals, and &T{...} (escaping composite);
//     plain struct and array values are fine — they stay on the stack
//   - append to anything but a struct-owned buffer (a field selector):
//     appending into a receiver-owned buffer is amortized reuse,
//     appending to a fresh local is a growing allocation
//   - fmt.* calls (interface boxing plus internal buffering)
//   - string concatenation and string(bytes/runes) conversions
//   - passing non-pointer-shaped, non-constant values to interface
//     parameters (boxing), and calling variadic functions with loose
//     arguments (the ... slice is allocated per call)
//   - closure creation and go statements
//
// The check is TRANSITIVE over the static call graph: an annotated
// function may not reach an allocating function through any chain of
// statically resolved calls. Every declared function — annotated or
// not — gets a silent allocation summary (an AllocFact on its
// *types.Func), helpers propagate summaries through in-package
// recursion by fixpoint and across packages through the run's fact
// store (the driver analyzes packages in dependency order), and each
// call site inside a //lad:noalloc body whose callee carries a fact is
// reported with the full witness chain. The escape hatches compose the
// same way as direct findings:
//
//   - a callee that is itself //lad:noalloc is trusted clean — its own
//     body is checked at its own definition, so chains of annotated
//     hot-path helpers do not re-report
//   - a reasoned //lint:ignore on an allocating line sanctions the
//     allocation for fact purposes too: the helper is summarized clean,
//     so no caller up the chain re-reports the accepted allocation
//   - dynamically dispatched sites (interface methods, func values) are
//     NOT chased — the 0 allocs/op tests cover dynamic dispatch at
//     runtime — and neither are standard-library callees
//     (fmt.*, the realistic offender, is flagged directly)
//
// The analyzer is deliberately a lint, not an escape analysis: the few
// annotated functions that make a justified amortized allocation (e.g.
// the per-chunk dedup map in Detector.checkRange) document it with a
// //lint:ignore and keep the annotation, so the benchmark gate and the
// static gate stay in agreement about what "hot" means.
package noalloc

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/callgraph"
)

// Analyzer is the noalloc check.
var Analyzer = &analysis.Analyzer{
	Name: "noalloc",
	Doc:  "//lad:noalloc function bodies must not reach allocation-forcing constructs through any static call chain",
	Run:  run,
}

// AllocFact marks a function that allocates, directly or through a
// static call chain; Why is the human-readable witness ("allocates:
// slice literal at probe.go:42" or "calls atN4, which ...").
type AllocFact struct{ Why string }

func (*AllocFact) AFact() {}

// NoallocFact marks a //lad:noalloc-annotated function: trusted clean
// by callers (its own body is checked at its definition).
type NoallocFact struct{}

func (*NoallocFact) AFact() {}

func run(pass *analysis.Pass) error {
	decls := map[*types.Func]*ast.FuncDecl{}
	annotated := map[*types.Func]bool{}
	var order []*types.Func
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := pass.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			decls[fn] = fd
			order = append(order, fn)
			if analysis.FuncAnnotated(fd, "noalloc") {
				annotated[fn] = true
				pass.ExportObjectFact(fn, &NoallocFact{})
			}
		}
	}

	// Phase 1: per-body direct analysis. Annotated bodies report their
	// violations; every other body is silently summarized (suppression
	// honored: a reasoned //lint:ignore keeps the helper's summary
	// clean, sanctioning the allocation transitively).
	for _, fn := range order {
		fd := decls[fn]
		if annotated[fn] {
			c := &checker{pass: pass, report: pass.Reportf}
			c.stmt(fd.Body, false)
			continue
		}
		rec := &recorder{pass: pass}
		c := &checker{pass: pass, report: rec.record}
		c.stmt(fd.Body, false)
		if rec.why != "" {
			pass.ExportObjectFact(fn, &AllocFact{Why: rec.why})
		}
	}

	// Phase 2: propagate summaries through in-package static calls to a
	// fixpoint (handles helpers defined after their callers and
	// recursion). Cross-package callees already carry facts: the driver
	// visits packages in dependency order.
	g := callgraph.BuildInfo(pass.Info, pass.Files)
	for changed := true; changed; {
		changed = false
		for _, fn := range order {
			if annotated[fn] {
				continue
			}
			var have AllocFact
			if pass.ImportObjectFact(fn, &have) {
				continue
			}
			if why, ok := reachesAlloc(pass, g, fn); ok {
				pass.ExportObjectFact(fn, &AllocFact{Why: why})
				changed = true
			}
		}
	}

	// Phase 3: report call sites inside annotated bodies whose callee
	// carries an allocation summary, with the witness chain.
	for _, fn := range order {
		if !annotated[fn] {
			continue
		}
		for _, e := range g.Calls(fn) {
			if e.Callee == nil || e.InGo {
				continue // dynamic / go-spawned: not chased (see package doc)
			}
			var trusted NoallocFact
			if pass.ImportObjectFact(e.Callee, &trusted) {
				continue
			}
			var af AllocFact
			if !pass.ImportObjectFact(e.Callee, &af) {
				continue
			}
			pass.Reportf(e.Pos, "call to %s in //lad:noalloc function reaches an allocation: %s %s",
				e.Callee.Name(), e.Callee.Name(), af.Why)
		}
	}
	return nil
}

// reachesAlloc looks for one static callee of fn that carries an
// AllocFact, skipping trusted (annotated) callees and call sites the
// author sanctioned with a reasoned //lint:ignore.
func reachesAlloc(pass *analysis.Pass, g *callgraph.Graph, fn *types.Func) (string, bool) {
	for _, e := range g.Calls(fn) {
		if e.Callee == nil || e.InGo {
			continue
		}
		var trusted NoallocFact
		if pass.ImportObjectFact(e.Callee, &trusted) {
			continue
		}
		var af AllocFact
		if !pass.ImportObjectFact(e.Callee, &af) {
			continue
		}
		if pass.SuppressedAt(e.Pos) {
			continue
		}
		return fmt.Sprintf("calls %s, which %s", e.Callee.Name(), af.Why), true
	}
	return "", false
}

// recorder captures the first unsuppressed direct finding of a helper
// body as a fact witness instead of a diagnostic.
type recorder struct {
	pass *analysis.Pass
	why  string
}

func (r *recorder) record(pos token.Pos, format string, args ...any) {
	if r.why != "" || r.pass.SuppressedAt(pos) {
		return
	}
	msg := fmt.Sprintf(format, args...)
	// The checker phrases findings for annotated bodies; a helper's
	// summary drops the annotation clause and pins the position.
	msg = strings.Replace(msg, " in //lad:noalloc function", "", 1)
	p := r.pass.Fset.Position(pos)
	r.why = fmt.Sprintf("allocates at %s:%d (%s)", filepath.Base(p.Filename), p.Line, msg)
}

type checker struct {
	pass   *analysis.Pass
	report func(pos token.Pos, format string, args ...any)
}

// stmt walks statements, threading capGuarded: true while inside an if
// whose condition compares cap(...) or len(...), the buffer grow-guard
// idiom under which make is the point of the code.
func (c *checker) stmt(s ast.Stmt, capGuarded bool) {
	switch s := s.(type) {
	case nil:
	case *ast.BlockStmt:
		for _, sub := range s.List {
			c.stmt(sub, capGuarded)
		}
	case *ast.IfStmt:
		c.stmt(s.Init, capGuarded)
		c.expr(s.Cond, capGuarded)
		c.stmt(s.Body, capGuarded || isCapGuard(c.pass, s.Cond))
		c.stmt(s.Else, capGuarded)
	case *ast.ForStmt:
		c.stmt(s.Init, capGuarded)
		c.expr(s.Cond, capGuarded)
		c.stmt(s.Post, capGuarded)
		c.stmt(s.Body, capGuarded)
	case *ast.RangeStmt:
		c.expr(s.X, capGuarded)
		c.stmt(s.Body, capGuarded)
	case *ast.SwitchStmt:
		c.stmt(s.Init, capGuarded)
		c.expr(s.Tag, capGuarded)
		c.stmt(s.Body, capGuarded)
	case *ast.TypeSwitchStmt:
		c.stmt(s.Init, capGuarded)
		c.stmt(s.Assign, capGuarded)
		c.stmt(s.Body, capGuarded)
	case *ast.SelectStmt:
		c.stmt(s.Body, capGuarded)
	case *ast.CaseClause:
		for _, e := range s.List {
			c.expr(e, capGuarded)
		}
		for _, sub := range s.Body {
			c.stmt(sub, capGuarded)
		}
	case *ast.CommClause:
		c.stmt(s.Comm, capGuarded)
		for _, sub := range s.Body {
			c.stmt(sub, capGuarded)
		}
	case *ast.LabeledStmt:
		c.stmt(s.Stmt, capGuarded)
	case *ast.GoStmt:
		c.report(s.Pos(), "go statement in //lad:noalloc function allocates a goroutine")
		c.expr(s.Call, capGuarded)
	case *ast.DeferStmt:
		c.expr(s.Call, capGuarded)
	case *ast.AssignStmt:
		c.assign(s, capGuarded)
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			c.expr(e, capGuarded)
		}
	case *ast.ExprStmt:
		c.expr(s.X, capGuarded)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						c.expr(v, capGuarded)
					}
				}
			}
		}
	case *ast.IncDecStmt:
		c.expr(s.X, capGuarded)
	case *ast.SendStmt:
		c.expr(s.Chan, capGuarded)
		c.expr(s.Value, capGuarded)
	}
}

func (c *checker) assign(s *ast.AssignStmt, capGuarded bool) {
	// String += concatenation allocates just like explicit concat.
	if s.Tok.String() == "+=" && len(s.Lhs) == 1 {
		if tv, ok := c.pass.Info.Types[s.Lhs[0]]; ok && isString(tv.Type) {
			c.report(s.Pos(), "string concatenation in //lad:noalloc function allocates")
		}
	}
	for _, e := range s.Rhs {
		c.expr(e, capGuarded)
	}
	for _, e := range s.Lhs {
		// Index/selector bases can contain calls; re-check them.
		if _, ok := e.(*ast.Ident); !ok {
			c.expr(e, capGuarded)
		}
	}
}

func (c *checker) expr(e ast.Expr, capGuarded bool) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			c.report(n.Pos(), "closure creation in //lad:noalloc function allocates")
			return false // the closure body runs under its own rules
		case *ast.CompositeLit:
			c.compositeLit(n)
		case *ast.UnaryExpr:
			if n.Op.String() == "&" {
				if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					c.report(n.Pos(), "&composite{...} in //lad:noalloc function escapes to the heap")
				}
			}
		case *ast.BinaryExpr:
			if n.Op.String() == "+" {
				if tv, ok := c.pass.Info.Types[n.X]; ok && isString(tv.Type) && !isConstExpr(c.pass, n) {
					c.report(n.Pos(), "string concatenation in //lad:noalloc function allocates")
				}
			}
		case *ast.CallExpr:
			c.call(n, capGuarded)
		}
		return true
	})
}

func (c *checker) compositeLit(lit *ast.CompositeLit) {
	tv, ok := c.pass.Info.Types[lit]
	if !ok {
		return
	}
	switch tv.Type.Underlying().(type) {
	case *types.Slice:
		c.report(lit.Pos(), "slice literal in //lad:noalloc function allocates")
	case *types.Map:
		c.report(lit.Pos(), "map literal in //lad:noalloc function allocates")
	}
	// Struct and array values stay on the stack unless address-taken,
	// which the &composite check catches.
}

func (c *checker) call(call *ast.CallExpr, capGuarded bool) {
	// Builtins.
	switch {
	case analysis.IsBuiltinCall(c.pass.Info, call, "new"):
		c.report(call.Pos(), "new(...) in //lad:noalloc function allocates")
		return
	case analysis.IsBuiltinCall(c.pass.Info, call, "make"):
		if !capGuarded {
			c.report(call.Pos(), "make(...) in //lad:noalloc function allocates (amortized first-touch sizing must sit under an `if cap(buf) < n` guard)")
		}
		return
	case analysis.IsBuiltinCall(c.pass.Info, call, "append"):
		c.append(call)
		return
	}

	// Conversions: string([]byte) / string([]rune) allocate.
	if tv, ok := c.pass.Info.Types[call.Fun]; ok && tv.IsType() {
		if isString(tv.Type) && len(call.Args) == 1 {
			if atv, ok := c.pass.Info.Types[call.Args[0]]; ok && !isString(atv.Type) && atv.Value == nil {
				c.report(call.Pos(), "string conversion in //lad:noalloc function allocates")
			}
		}
		return
	}

	obj := analysis.Callee(c.pass.Info, call)
	if obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "fmt" {
		c.report(call.Pos(), "fmt.%s in //lad:noalloc function allocates (boxing + buffering)", obj.Name())
		return
	}
	c.boxing(call, obj)
}

// append is allowed only into struct-owned buffers (field selectors):
// that is the documented amortized-reuse idiom. Appending to a local or
// package-level slice inside a hot path is a per-call growth risk.
func (c *checker) append(call *ast.CallExpr) {
	if len(call.Args) == 0 {
		return
	}
	if _, ok := ast.Unparen(call.Args[0]).(*ast.SelectorExpr); ok {
		return
	}
	c.report(call.Pos(), "append to non-struct-owned slice in //lad:noalloc function risks per-call growth; reuse a struct-owned buffer")
}

// boxing flags non-pointer-shaped, non-constant arguments passed to
// interface parameters, and loose variadic arguments (the callee's ...
// slice is allocated per call).
func (c *checker) boxing(call *ast.CallExpr, obj types.Object) {
	tv, ok := c.pass.Info.Types[call.Fun]
	if !ok {
		return
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	name := "function"
	if obj != nil {
		name = obj.Name()
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // spread of an existing slice: no new backing array here
			}
			c.report(arg.Pos(), "loose variadic argument to %s in //lad:noalloc function allocates the ... slice", name)
			continue
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if _, isIface := pt.Underlying().(*types.Interface); !isIface {
			continue
		}
		atv, ok := c.pass.Info.Types[arg]
		if !ok || atv.Value != nil {
			continue // constants are boxed into read-only data, not per call
		}
		if _, alreadyIface := atv.Type.Underlying().(*types.Interface); alreadyIface {
			continue
		}
		if !pointerShaped(atv.Type) {
			c.report(arg.Pos(), "passing %s by value to interface parameter of %s in //lad:noalloc function boxes it", atv.Type, name)
		}
	}
}

// isCapGuard recognizes conditions containing a cap(...) or len(...)
// comparison — the grow-guard idiom.
func isCapGuard(pass *analysis.Pass, cond ast.Expr) bool {
	found := false
	ast.Inspect(cond, func(n ast.Node) bool {
		be, ok := n.(*ast.BinaryExpr)
		if !ok {
			return true
		}
		switch be.Op.String() {
		case "<", "<=", ">", ">=", "!=":
		default:
			return true
		}
		for _, side := range []ast.Expr{be.X, be.Y} {
			if inner, ok := ast.Unparen(side).(*ast.CallExpr); ok {
				if analysis.IsBuiltinCall(pass.Info, inner, "cap") || analysis.IsBuiltinCall(pass.Info, inner, "len") {
					found = true
				}
			}
		}
		return true
	})
	return found
}

func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isConstExpr(pass *analysis.Pass, e ast.Expr) bool {
	tv, ok := pass.Info.Types[e]
	return ok && tv.Value != nil
}

// pointerShaped types box into an interface without copying the value
// to the heap: the interface word holds the pointer (or pointer-like
// header word) directly.
func pointerShaped(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	}
	return false
}
