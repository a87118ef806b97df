// Package refbalance defines an interprocedural analyzer checking that
// every counted reference (a SafeRead or Alloc result, per §5 of the
// paper, Figures 15–17) is balanced by exactly one Release along every
// control-flow path — including references that flow through helper
// functions.
//
// An intraprocedural check (releasepath is one) must assume that any call
// taking a tracked reference as an argument assumes ownership of it,
// because it knows nothing about the callee. That assumption hides the two bug
// classes the paper's Theorems 4 and 5 rule out only when the protocol is
// followed exactly:
//
//   - a reference held across a call to a read-only helper and then
//     forgotten (the helper did NOT take ownership — the cell leaks, and
//     with it everything reachable through its counted links);
//   - a reference released once by a helper and again by the caller (the
//     count goes negative, a live cell returns to the free list, and the
//     ABA protection of §5.1 collapses).
//
// refbalance closes that gap with per-function summaries — "returns a +1
// reference", "releases parameter i", "transfers ownership of parameter
// i", "neutral" — computed bottom-up over the package dependency graph and
// carried across packages as framework facts. At each call site the
// caller's obligations are updated from the callee's summary: a neutral
// parameter keeps the obligation alive, a releasing parameter discharges
// it (and flags a second release), a transferring parameter hands it off.
//
// The protocol functions themselves are recognized by name (SafeRead,
// Release, ReleaseNodes, AddRef, Alloc — the vocabulary of Figures 15–18),
// exactly as the releasepath analyzer does.
//
// The function body is interpreted path by path over its control-flow
// graph (framework/cfg), with branch edges carrying their conditions so
// nil tests refine the state on each side. Summaries additionally record
// when a function's +1 results are nil together — AllocInsertNodes
// (Figure 12's both-or-neither allocation) returns either two live
// references or two nils, never a mix — and the caller links such
// references into a group: proving one nil (`if q == nil`) discharges the
// whole group, so the correlated-nil idiom needs no suppression.
//
// Like releasepath, the analysis errs toward leniency: a reference that
// reaches any operation with unknown semantics stops being tracked, loop
// exploration is bounded by the interpreter's visit budget, and paths that
// end in panic are exempt (the releasepath analyzer owns exit-path
// accounting). Two sources of deliberate slack: a Compare&Swap keeps its
// expected argument alive but marks it "shared" — the paper's structures
// routinely hold several counted references to one cell around a CAS
// (TryDelete releases both a link reference and a traversal reference of
// the same cell), so releases of shared references are never reported as
// doubles; and AddRef marks its argument shared the same way.
package refbalance

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"valois/internal/analysis/framework"
	"valois/internal/analysis/framework/cfg"
)

// Analyzer reports unbalanced counted references across call boundaries.
var Analyzer = &framework.Analyzer{
	Name:      "refbalance",
	Doc:       "report counted references not balanced by exactly one Release, following helper-call summaries",
	FactTypes: []framework.Fact{(*Summary)(nil)},
	Run:       run,
}

// maxStates bounds the number of distinct path states carried through a
// function; beyond it, excess states are dropped (under-approximation:
// fewer reports, never spurious ones).
const maxStates = 64

func run(pass *framework.Pass) (any, error) {
	sums := computeSummaries(pass)
	a := &analysis{pass: pass, sums: sums, reported: make(map[token.Pos]bool)}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					a.analyzeFunc(n.Type, n.Body)
				}
			case *ast.FuncLit:
				a.analyzeFunc(n.Type, n.Body)
			}
			return true
		})
	}
	return nil, nil
}

type analysis struct {
	pass     *framework.Pass
	sums     *summarizer
	reported map[token.Pos]bool
	// results holds the named result variables of the function currently
	// being analyzed: assigning to one transfers ownership to the caller.
	results map[*types.Var]bool
	// nextGroup numbers the correlated-nil groups of the current function;
	// references created by one nil-together call share a group id.
	nextGroup int
}

// ref is the abstract state of one tracked counted reference.
type ref struct {
	pos      token.Pos // the acquiring call, for diagnostics
	source   string    // name of the acquiring function, for diagnostics
	released bool      // discharged by a known releasing call
	shared   bool      // cell may hold several references (CAS expected, AddRef)
	group    int       // correlated-nil group: 0 when independent
}

// state maps each tracked variable to its reference state.
type state map[*types.Var]ref

func (s state) clone() state {
	c := make(state, len(s))
	for k, v := range s {
		c[k] = v
	}
	return c
}

func (a *analysis) analyzeFunc(typ *ast.FuncType, body *ast.BlockStmt) {
	a.results = make(map[*types.Var]bool)
	if typ.Results != nil {
		for _, field := range typ.Results.List {
			for _, name := range field.Names {
				if v, ok := a.pass.TypesInfo.Defs[name].(*types.Var); ok {
					a.results[v] = true
				}
			}
		}
	}
	ip := &cfg.Interp[state]{
		MaxStates: maxStates,
		Clone:     func(st state) state { return st.clone() },
		Equal:     statesEqual,
		Node:      a.applyNode,
		Edge: func(e *cfg.Edge, st state) bool {
			a.refineNil(e, st)
			return true
		},
		Exit: func(e *cfg.Edge, st state) {
			// Panic paths are exempt: releasepath owns exit accounting for
			// paths that do not complete normally.
			if e.Kind != cfg.Panic {
				a.leakCheck(st)
			}
		},
	}
	ip.Run(a.pass.FuncCFG(body), make(state))
}

// report emits one diagnostic per site.
func (a *analysis) report(pos token.Pos, category, format string, args ...any) {
	if a.reported[pos] {
		return
	}
	a.reported[pos] = true
	a.pass.Categorizef(category, pos, format, args...)
}

func (a *analysis) leakCheck(st state) {
	for v, r := range st {
		if !r.released {
			a.report(r.pos, "leak",
				"counted reference in %s (from %s) is not released on every path through this function", v.Name(), r.source)
		}
	}
}

// applyNode interprets one evaluated CFG node against one state.
func (a *analysis) applyNode(n ast.Node, st state) {
	switch n := n.(type) {
	case *ast.ExprStmt:
		if call, ok := ast.Unparen(n.X).(*ast.CallExpr); ok {
			if sum := a.summaryOf(call); sum.plusResult(0) {
				a.report(call.Pos(), "leak",
					"result of %s carries a counted reference that is discarded", calleeName(a.pass, call))
			}
		}
		a.evalExpr(n.X, st, false)

	case *ast.AssignStmt:
		a.interpAssign(n, st)

	case *ast.DeclStmt:
		if gd, ok := n.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					a.interpValueSpec(vs, st)
				}
			}
		}

	case *ast.ReturnStmt:
		for _, res := range n.Results {
			a.evalExpr(res, st, true) // returning transfers ownership
		}

	case *ast.DeferStmt:
		a.applyCall(n.Call, st, true)

	case *ast.GoStmt:
		a.evalExpr(n.Call, st, false)

	case *ast.SendStmt:
		a.evalExpr(n.Chan, st, false)
		a.evalExpr(n.Value, st, true) // sending transfers ownership

	case *ast.IncDecStmt:
		a.evalExpr(n.X, st, false)

	case *ast.RangeStmt:
		// The per-iteration key/value binding; the range operand was
		// already evaluated as its own node before the loop head.

	case ast.Expr:
		a.evalExpr(n, st, false)
	}
}

// refineNil applies the branch condition carried on a True/False edge: a
// reference known to be nil on the taken side carries no obligation — and
// neither do its group mates, because a nil-together callee delivered
// either all of them or none (the correlated-nil proof that replaces the
// old AllocInsertNodes suppressions).
func (a *analysis) refineNil(e *cfg.Edge, st state) {
	if e.Cond == nil {
		return
	}
	be, ok := ast.Unparen(e.Cond).(*ast.BinaryExpr)
	if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
		return
	}
	var v *types.Var
	if a.isNil(be.Y) {
		v = a.varOf(be.X)
	} else if a.isNil(be.X) {
		v = a.varOf(be.Y)
	}
	if v == nil {
		return
	}
	nilSide := (be.Op == token.EQL) == (e.Kind == cfg.True)
	if !nilSide {
		return
	}
	r, held := st[v]
	if !held {
		return
	}
	delete(st, v)
	if r.group != 0 {
		for ov, or := range st {
			if or.group == r.group {
				delete(st, ov)
			}
		}
	}
}

// interpAssign applies one assignment statement to one state.
func (a *analysis) interpAssign(s *ast.AssignStmt, st state) {
	if len(s.Lhs) == len(s.Rhs) {
		for i := range s.Rhs {
			a.assignOne(s.Lhs[i], s.Rhs[i], st)
		}
		return
	}
	// q, a := f(): a multi-result call tracked position by position.
	if len(s.Rhs) == 1 {
		if call, ok := ast.Unparen(s.Rhs[0]).(*ast.CallExpr); ok {
			sum := a.summaryOf(call)
			a.applyCall(call, st, false)
			// A nil-together callee's references are born correlated: one
			// group id links every +1 result of this call.
			group := 0
			if sum != nil && sum.NilTogether {
				a.nextGroup++
				group = a.nextGroup
			}
			for i, lhs := range s.Lhs {
				a.overwriteCheck(lhs, st, call.Pos())
				if sum.plusResult(i) {
					if lv := a.localVar(lhs); lv != nil {
						st[lv] = ref{pos: call.Pos(), source: calleeName(a.pass, call), group: group}
						continue
					}
				}
				a.evalExpr(lhs, st, false)
			}
			return
		}
	}
	for _, rhs := range s.Rhs {
		a.evalExpr(rhs, st, false)
	}
	for _, lhs := range s.Lhs {
		a.overwriteCheck(lhs, st, token.NoPos)
		a.evalExpr(lhs, st, false)
	}
}

// interpValueSpec handles `var q = m.SafeRead(...)` declarations.
func (a *analysis) interpValueSpec(vs *ast.ValueSpec, st state) {
	if len(vs.Names) == len(vs.Values) {
		for i := range vs.Values {
			a.assignOne(vs.Names[i], vs.Values[i], st)
		}
		return
	}
	for _, v := range vs.Values {
		a.evalExpr(v, st, false)
	}
}

func (a *analysis) assignOne(lhs, rhs ast.Expr, st state) {
	// A +1 call assigned to a local variable starts an obligation.
	if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok {
		sum := a.summaryOf(call)
		a.applyCall(call, st, false)
		if sum.plusResult(0) {
			if lv := a.localVar(lhs); lv != nil {
				a.overwriteCheck(lhs, st, call.Pos())
				st[lv] = ref{pos: call.Pos(), source: calleeName(a.pass, call)}
				return
			}
			// Stored straight into a field or element: ownership
			// transferred to the structure.
			a.evalExpr(lhs, st, false)
			return
		}
		a.overwriteCheck(lhs, st, token.NoPos)
		a.evalExpr(lhs, st, false)
		return
	}
	// Transferring a tracked reference between variables moves the
	// obligation; storing it anywhere else resolves it.
	if rv := a.trackedIdent(rhs, st); rv != nil {
		if lv := a.localVar(lhs); lv != nil {
			if lv == rv {
				return
			}
			r := st[rv]
			delete(st, rv)
			a.overwriteCheck(lhs, st, token.NoPos)
			st[lv] = r
			return
		}
		delete(st, rv)
		a.evalExpr(lhs, st, false)
		return
	}
	a.evalExpr(rhs, st, a.localVar(lhs) == nil)
	a.overwriteCheck(lhs, st, token.NoPos)
	a.evalExpr(lhs, st, false)
}

// overwriteCheck reports and clears a live, reliably-single obligation when
// its variable is about to be overwritten. newPos is the acquiring call of
// the incoming value, when there is one: re-executing the same acquisition
// on a later loop iteration replaces the obligation silently (the previous
// trip's balance is judged at the loop's exit edges, not here).
func (a *analysis) overwriteCheck(lhs ast.Expr, st state, newPos token.Pos) {
	lv := a.localVar(lhs)
	if lv == nil {
		return
	}
	if r, held := st[lv]; held {
		if !r.released && !r.shared && r.pos != newPos {
			a.report(r.pos, "leak",
				"counted reference in %s (from %s) is overwritten before being released", lv.Name(), r.source)
		}
		delete(st, lv)
	}
}

// summaryOf resolves the callee's summary, or nil when unknown.
func (a *analysis) summaryOf(call *ast.CallExpr) *Summary {
	return a.sums.summaryFor(calleeFunc(a.pass, call))
}

// applyCall updates one state for the effects of one call, consulting the
// callee's summary for each argument holding a tracked reference. deferred
// marks calls run at function exit (defer m.Release(q)): their releases are
// treated as shared, because statements between the defer and the actual
// exit may legitimately touch the reference again.
func (a *analysis) applyCall(call *ast.CallExpr, st state, deferred bool) {
	a.evalExpr(call.Fun, st, false)
	sum := a.summaryOf(call)
	cas, isCAS := casShape(a.pass, call)
	name := calleeName(a.pass, call)
	isAddRef := name == "AddRef" || name == "addRef"

	for j, arg := range call.Args {
		v := a.trackedIdent(arg, st)
		if v == nil {
			// Untracked argument: evaluate it; nested tracked uses inside
			// composite expressions escape as usual.
			a.evalExpr(arg, st, true)
			continue
		}
		r := st[v]
		switch {
		case isCAS && j == cas.expected:
			// The CAS only compares the expected value, but its success
			// usually means a structure link to the same cell was dropped
			// or created — reference multiplicity is no longer ours to
			// judge.
			r.shared = true
			st[v] = r
		case isCAS && j == cas.new:
			delete(st, v) // stored into the structure
		case isAddRef:
			// An extra reference was acquired: still at least one release
			// owed, but no longer exactly one.
			r.shared = true
			r.released = false
			st[v] = r
		case sum == nil:
			delete(st, v) // unknown callee may assume ownership
		default:
			switch sum.paramEffect(j) {
			case ParamReleases:
				if r.released && !r.shared {
					a.report(call.Pos(), "double-release",
						"counted reference in %s (from %s) is released again here; it was already released on this path", v.Name(), r.source)
				}
				r.released = true
				if deferred {
					r.shared = true
				}
				st[v] = r
			case ParamNeutral:
				// The interprocedural case: a read-only helper leaves the
				// obligation with the caller.
			default: // ParamTransfers
				delete(st, v)
			}
		}
	}
}

// evalExpr walks an expression, resolving tracked variables that occur in
// ownership-transferring positions. resolving reports whether e itself is
// in such a position (return value, composite element, ...).
func (a *analysis) evalExpr(e ast.Expr, st state, resolving bool) {
	switch e := e.(type) {
	case nil:
		return
	case *ast.Ident:
		if resolving {
			if v, ok := a.pass.TypesInfo.Uses[e].(*types.Var); ok {
				delete(st, v)
			}
		}
	case *ast.ParenExpr:
		a.evalExpr(e.X, st, resolving)
	case *ast.SelectorExpr:
		a.evalExpr(e.X, st, false) // q.Item, q.Next(): plain use, not a transfer
	case *ast.StarExpr:
		a.evalExpr(e.X, st, false)
	case *ast.UnaryExpr:
		a.evalExpr(e.X, st, e.Op == token.AND) // &q lets the reference escape
	case *ast.BinaryExpr:
		a.evalExpr(e.X, st, false)
		a.evalExpr(e.Y, st, false)
	case *ast.CallExpr:
		a.applyCall(e, st, false)
	case *ast.IndexExpr:
		a.evalExpr(e.X, st, resolving)
		a.evalExpr(e.Index, st, false)
	case *ast.IndexListExpr:
		a.evalExpr(e.X, st, resolving)
	case *ast.SliceExpr:
		a.evalExpr(e.X, st, false)
	case *ast.CompositeLit:
		for _, elt := range e.Elts {
			a.evalExpr(elt, st, true)
		}
	case *ast.KeyValueExpr:
		a.evalExpr(e.Value, st, true)
	case *ast.TypeAssertExpr:
		a.evalExpr(e.X, st, resolving)
	case *ast.FuncLit:
		// Captured tracked variables escape into the closure.
		ast.Inspect(e.Body, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if v, ok := a.pass.TypesInfo.Uses[id].(*types.Var); ok {
					delete(st, v)
				}
			}
			return true
		})
	}
}

func (a *analysis) isNil(e ast.Expr) bool {
	tv, ok := a.pass.TypesInfo.Types[e]
	return ok && tv.IsNil()
}

func (a *analysis) varOf(e ast.Expr) *types.Var {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	v, _ := a.pass.TypesInfo.Uses[id].(*types.Var)
	return v
}

// localVar returns the function-local, non-blank variable an lvalue
// denotes, or nil. Package-level variables are shared state and treated as
// escapes, not obligations.
func (a *analysis) localVar(e ast.Expr) *types.Var {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	obj := a.pass.TypesInfo.Defs[id]
	if obj == nil {
		obj = a.pass.TypesInfo.Uses[id]
	}
	v, ok := obj.(*types.Var)
	if !ok || v.IsField() || a.results[v] {
		return nil
	}
	if v.Parent() == nil || v.Parent() == a.pass.Pkg.Scope() {
		return nil
	}
	return v
}

// trackedIdent returns the tracked variable e denotes in st, or nil.
func (a *analysis) trackedIdent(e ast.Expr, st state) *types.Var {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	v, ok := a.pass.TypesInfo.Uses[id].(*types.Var)
	if !ok {
		return nil
	}
	if _, held := st[v]; !held {
		return nil
	}
	return v
}

// casArgs locates the expected and new arguments of a Compare&Swap call.
type casArgs struct {
	expected int
	new      int
}

// casShape recognizes the three Compare&Swap spellings of this codebase —
// a CompareAndSwap/CASXxx method on an atomic (or a wrapper like
// mm.Node.CASNext), a sync/atomic CompareAndSwapXxx function, and the
// generic primitive.CompareAndSwap — and returns the positions of the
// expected and new arguments.
func casShape(pass *framework.Pass, call *ast.CallExpr) (casArgs, bool) {
	fn := calleeFunc(pass, call)
	if fn == nil {
		return casArgs{}, false
	}
	name := fn.Name()
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		if (name == "CompareAndSwap" || strings.HasPrefix(name, "CAS")) && len(call.Args) == 2 {
			return casArgs{expected: 0, new: 1}, true
		}
		return casArgs{}, false
	}
	if strings.HasPrefix(name, "CompareAndSwap") && len(call.Args) == 3 {
		return casArgs{expected: 1, new: 2}, true
	}
	return casArgs{}, false
}

// calleeName returns the simple name of the called function or method.
func calleeName(pass *framework.Pass, call *ast.CallExpr) string {
	if fn := calleeFunc(pass, call); fn != nil {
		return fn.Name()
	}
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		return fun.Sel.Name
	case *ast.Ident:
		return fun.Name
	}
	return "the call"
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

func statesEqual(a, b state) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if bv, ok := b[k]; !ok || bv != v {
			return false
		}
	}
	return true
}
