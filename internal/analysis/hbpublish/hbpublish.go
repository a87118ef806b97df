// Package hbpublish defines a happens-before-aware analyzer for mutation
// after publication.
//
// A lock-free structure hands cells to other goroutines by publishing a
// pointer: an atomic Store, a successful CompareAndSwap, or a channel
// send. From that instant the cell is shared — every plain field write
// reachable after the publication races with readers that already
// traversed the pointer, and the race is invisible locally because the
// writing goroutine still holds what looks like a private pointer it just
// initialized. The correct order (the paper's Figures 17–18 and every
// constructor in internal/mm) is: initialize fully, then publish, then
// touch the cell only through its atomic fields.
//
// The analyzer tracks function-local pointers born from &T{...} or new(T)
// and runs a forward may-dataflow over the function's control-flow graph
// (framework/cfg): the fact at each point is the set of tracked pointers
// a publication reaches. A plain field write is flagged only when a
// publication of the same pointer actually reaches it along some path —
// unlike its position-based predecessor (publish, v1–v6 of the suite),
// which compared source offsets and therefore missed loop-carried races
// (a write textually above the CAS that iteration N+1 performs after
// iteration N published) while flagging writes on branches mutually
// exclusive with the publication. Dominators grade each finding: a write
// the publication dominates races on every path, otherwise on some path.
// Re-pointing the variable at a fresh cell kills the fact — the write
// then targets the new, private cell.
//
// Publications in scope:
//
//   - an atomic Store method or the new value of a CompareAndSwap —
//     always: these are the lock-free publication idioms;
//   - a channel send — only when the struct carries a sync/atomic field,
//     the marker of a concurrently-accessed protocol cell (mirroring
//     abaguard's scoping; plain data sent over a channel with the
//     receiver taking ownership is a legitimate hand-off pattern).
//
// Writes through the cell's own atomic fields (x.refct.Store(1)) are
// method calls, not plain writes, and stay clean. Function literals are
// separate accounting scopes: a publication inside a closure orders with
// the closure's own writes, not the enclosing function's (cross-closure
// ordering is out of scope — lenient, like the reference analyzers).
package hbpublish

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"valois/internal/analysis/framework"
	"valois/internal/analysis/framework/cfg"
)

// Analyzer reports plain field writes reachable after the struct was
// published.
var Analyzer = &framework.Analyzer{
	Name:    "hbpublish",
	Doc:     "report struct fields written at a point reachable after the struct was published via atomic store, CAS, or channel send",
	Version: "v1",
	Run:     run,
}

func run(pass *framework.Pass) (any, error) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					checkFunc(pass, n.Body)
				}
			case *ast.FuncLit:
				checkFunc(pass, n.Body)
			}
			return true
		})
	}
	return nil, nil
}

// pubInfo records the earliest publication of one tracked pointer that
// reaches a program point.
type pubInfo struct {
	pos   token.Pos
	how   string
	block int // the CFG block performing the publication
}

// fact is the dataflow fact: which tracked pointers are published here,
// each with its earliest reaching publication.
type fact map[*types.Var]pubInfo

func cloneFact(f fact) fact {
	c := make(fact, len(f))
	for k, v := range f {
		c[k] = v
	}
	return c
}

func checkFunc(pass *framework.Pass, body *ast.BlockStmt) {
	locals := gatherLocals(pass, body)
	if len(locals) == 0 {
		return
	}
	g := pass.FuncCFG(body)

	apply := func(b *cfg.Block, in fact) fact {
		out := cloneFact(in)
		for _, n := range b.Nodes {
			applyNode(pass, locals, n, out, b.Index)
		}
		return out
	}
	res := cfg.Solve(g, cfg.Problem[fact]{
		Dir:      cfg.Forward,
		Boundary: fact{},
		Init:     fact{},
		Join: func(a, b fact) fact {
			j := cloneFact(a)
			for v, p := range b {
				if old, ok := j[v]; !ok || p.pos < old.pos {
					j[v] = p
				}
			}
			return j
		},
		Transfer: apply,
		Equal: func(a, b fact) bool {
			if len(a) != len(b) {
				return false
			}
			for v, p := range a {
				if q, ok := b[v]; !ok || q != p {
					return false
				}
			}
			return true
		},
	})

	// Reporting pass: re-walk each block from its fixpoint in-fact,
	// checking every plain field write against the publications reaching
	// it. Publications inherited from predecessors are graded by
	// dominance; one applied earlier in the same block is by construction
	// on every path.
	idom := cfg.Dominators(g)
	for _, b := range g.Blocks {
		inherited := res.In[b.Index]
		local := make(fact)
		for _, n := range b.Nodes {
			for _, w := range fieldWrites(pass, locals, n) {
				p, fromLocal := local[w.v]
				if !fromLocal {
					var ok bool
					p, ok = inherited[w.v]
					if !ok {
						continue
					}
				}
				every := fromLocal ||
					(p.block != b.Index && cfg.Dominates(idom, p.block, b.Index))
				path := "some path"
				if every {
					path = "every path"
				}
				ppos := pass.Fset.Position(p.pos)
				pass.Categorizef("unsafe-publish", w.pos,
					"field %s of %s is written after the struct was published by %s (line %d) on %s: the plain write races with readers of the published pointer — initialize before publishing, or make the field atomic",
					w.field, w.v.Name(), p.how, ppos.Line, path)
			}
			applyNode(pass, locals, n, local, b.Index)
			// A re-point also hides inherited publications from later
			// nodes of this block.
			for _, v := range repointedVars(pass, locals, n) {
				if _, ok := inherited[v]; ok {
					inherited = cloneFact(inherited)
					delete(inherited, v)
				}
			}
		}
	}
}

// applyNode folds one evaluated CFG node into a publication fact:
// publications add entries, re-pointing a tracked variable removes its
// entry (the old cell is no longer reachable through it). Function-literal
// interiors are skipped — separate scope.
func applyNode(pass *framework.Pass, locals map[*types.Var]bool, n ast.Node, f fact, block int) {
	inspectNoFuncLit(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if v := localIdent(pass, locals, lhs); v != nil {
					delete(f, v)
				}
			}
		case *ast.CallExpr:
			recordCallPublication(pass, locals, f, n, block)
		case *ast.SendStmt:
			if v := localIdent(pass, locals, n.Value); v != nil && hasAtomicField(v.Type()) {
				if old, ok := f[v]; !ok || n.Pos() < old.pos {
					f[v] = pubInfo{pos: n.Pos(), how: "channel send", block: block}
				}
			}
		}
		return true
	})
}

// repointedVars lists the tracked variables n assigns to directly.
func repointedVars(pass *framework.Pass, locals map[*types.Var]bool, n ast.Node) []*types.Var {
	var vars []*types.Var
	inspectNoFuncLit(n, func(n ast.Node) bool {
		if as, ok := n.(*ast.AssignStmt); ok {
			for _, lhs := range as.Lhs {
				if v := localIdent(pass, locals, lhs); v != nil {
					vars = append(vars, v)
				}
			}
		}
		return true
	})
	return vars
}

type fieldWrite struct {
	pos   token.Pos
	v     *types.Var
	field string
}

// fieldWrites lists the plain field writes n performs through tracked
// pointers.
func fieldWrites(pass *framework.Pass, locals map[*types.Var]bool, n ast.Node) []fieldWrite {
	var writes []fieldWrite
	inspectNoFuncLit(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if w, ok := asFieldWrite(pass, locals, lhs); ok {
					writes = append(writes, w)
				}
			}
		case *ast.IncDecStmt:
			if w, ok := asFieldWrite(pass, locals, n.X); ok {
				writes = append(writes, w)
			}
		}
		return true
	})
	return writes
}

// gatherLocals collects the function's locally-constructed struct
// pointers: variables assigned &T{...} or new(T) anywhere in the body
// (their own scope; closure interiors excluded).
func gatherLocals(pass *framework.Pass, body *ast.BlockStmt) map[*types.Var]bool {
	locals := make(map[*types.Var]bool)
	inspectNoFuncLit(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) == len(n.Rhs) {
				for i := range n.Rhs {
					recordLocal(pass, locals, n.Lhs[i], n.Rhs[i])
				}
			}
		case *ast.ValueSpec:
			if len(n.Names) == len(n.Values) {
				for i := range n.Values {
					recordLocal(pass, locals, n.Names[i], n.Values[i])
				}
			}
		}
		return true
	})
	return locals
}

// inspectNoFuncLit walks n without entering function literals: a closure
// is its own accounting scope.
func inspectNoFuncLit(n ast.Node, f func(ast.Node) bool) {
	ast.Inspect(n, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if n == nil {
			return true
		}
		return f(n)
	})
}

// recordLocal marks lhs as a tracked pointer when rhs constructs a fresh
// struct: &T{...} or new(T).
func recordLocal(pass *framework.Pass, locals map[*types.Var]bool, lhs, rhs ast.Expr) {
	id, ok := ast.Unparen(lhs).(*ast.Ident)
	if !ok || id.Name == "_" {
		return
	}
	obj := pass.TypesInfo.Defs[id]
	if obj == nil {
		obj = pass.TypesInfo.Uses[id]
	}
	v, ok := obj.(*types.Var)
	if !ok || v.IsField() {
		return
	}
	fresh := false
	switch rhs := ast.Unparen(rhs).(type) {
	case *ast.UnaryExpr:
		if rhs.Op == token.AND {
			_, fresh = ast.Unparen(rhs.X).(*ast.CompositeLit)
		}
	case *ast.CallExpr:
		if fun, ok := ast.Unparen(rhs.Fun).(*ast.Ident); ok {
			if b, ok := pass.TypesInfo.Uses[fun].(*types.Builtin); ok && b.Name() == "new" {
				fresh = true
			}
		}
	}
	if !fresh || !pointsToStruct(v.Type()) {
		return
	}
	locals[v] = true
}

// recordCallPublication detects the atomic publication idioms: a Store
// method with a tracked pointer argument, and a CompareAndSwap whose new
// value is a tracked pointer.
func recordCallPublication(pass *framework.Pass, locals map[*types.Var]bool, f fact, call *ast.CallExpr, block int) {
	fn := calleeFunc(pass, call)
	if fn == nil {
		return
	}
	record := func(v *types.Var, how string) {
		if old, ok := f[v]; !ok || call.Pos() < old.pos {
			f[v] = pubInfo{pos: call.Pos(), how: how, block: block}
		}
	}
	isMethod := fn.Type().(*types.Signature).Recv() != nil
	switch {
	case isMethod && fn.Name() == "Store":
		for _, arg := range call.Args {
			if v := localIdent(pass, locals, arg); v != nil {
				record(v, "atomic store")
			}
		}
	case isMethod && (fn.Name() == "CompareAndSwap" || strings.HasPrefix(fn.Name(), "CAS")),
		!isMethod && strings.HasPrefix(fn.Name(), "CompareAndSwap"):
		if len(call.Args) == 0 {
			return
		}
		if v := localIdent(pass, locals, call.Args[len(call.Args)-1]); v != nil {
			record(v, "CompareAndSwap")
		}
	}
}

// asFieldWrite decodes expr as a plain field write x.f through a tracked
// pointer x.
func asFieldWrite(pass *framework.Pass, locals map[*types.Var]bool, expr ast.Expr) (fieldWrite, bool) {
	sel, ok := ast.Unparen(expr).(*ast.SelectorExpr)
	if !ok {
		return fieldWrite{}, false
	}
	v := localIdent(pass, locals, sel.X)
	if v == nil {
		return fieldWrite{}, false
	}
	if s, ok := pass.TypesInfo.Selections[sel]; !ok || s.Kind() != types.FieldVal {
		return fieldWrite{}, false
	}
	return fieldWrite{pos: expr.Pos(), v: v, field: sel.Sel.Name}, true
}

// localIdent resolves e to a tracked local pointer variable, or nil.
func localIdent(pass *framework.Pass, locals map[*types.Var]bool, e ast.Expr) *types.Var {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	v, ok := pass.TypesInfo.Uses[id].(*types.Var)
	if !ok || !locals[v] {
		return nil
	}
	return v
}

func pointsToStruct(t types.Type) bool {
	ptr, ok := t.Underlying().(*types.Pointer)
	if !ok {
		return false
	}
	_, ok = ptr.Elem().Underlying().(*types.Struct)
	return ok
}

// hasAtomicField reports whether the pointee struct carries a sync/atomic
// field — the marker of a concurrently-accessed protocol cell.
func hasAtomicField(t types.Type) bool {
	ptr, ok := t.Underlying().(*types.Pointer)
	if !ok {
		return false
	}
	st, ok := ptr.Elem().Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		named, ok := st.Field(i).Type().(*types.Named)
		if ok && named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == "sync/atomic" {
			return true
		}
	}
	return false
}

// calleeFunc resolves the *types.Func a call invokes, or nil for calls
// through function values, conversions, and builtins.
func calleeFunc(pass *framework.Pass, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		fn, _ := pass.TypesInfo.Uses[fun.Sel].(*types.Func)
		return fn
	case *ast.Ident:
		fn, _ := pass.TypesInfo.Uses[fun].(*types.Func)
		return fn
	case *ast.IndexExpr: // explicit generic instantiation f[T](...)
		if id, ok := ast.Unparen(fun.X).(*ast.Ident); ok {
			fn, _ := pass.TypesInfo.Uses[id].(*types.Func)
			return fn
		}
		if sel, ok := ast.Unparen(fun.X).(*ast.SelectorExpr); ok {
			fn, _ := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
			return fn
		}
	}
	return nil
}
