// Package releasepath defines an analyzer that audits every function exit
// path — ordinary returns, early error returns, fall-through ends, and
// panic exits — for acquired references that are neither released nor
// transferred.
//
// The paper's reclamation discipline (§5, Figures 15–18) only works if
// the count is balanced on EVERY way out of a function. The exits that
// slip through review are rarely the happy path: they are the early
// `return nil, err` added after the SafeRead, and the `panic` guarding a
// broken invariant — an exit the companion refbalance analyzer
// deliberately exempts (it polices paths that complete; this analyzer owns
// every exit). A reference lost on a panic exit is especially insidious:
// the process usually survives (a recover upstream), the count stays
// high forever, and the cell plus everything reachable through its
// counted links is unreclaimable.
//
// The analyzer tracks local variables assigned from calls named SafeRead,
// safeRead, Alloc, or alloc that return a pointer — the acquisition
// intrinsics of the protocol — and interprets the function's control-flow
// graph path by path. It applies the same discipline to epoch guards:
// a call named Pin or pin returning a single value opens an epoch-
// protected region, and a guard that is never handed to Unpin on some
// exit path leaves that epoch pinned forever — reclamation wedges, limbo
// grows without bound, and unlike a single lost cell the damage is
// global. A guard that is discarded outright — `m.Pin()` as a bare
// statement, or `_ = m.Pin()` — can never reach Unpin on any path and is
// reported where it is dropped. Both findings carry the missing-unpin
// category. An obligation is discharged by anything that releases or
// plausibly transfers it: passing the variable to any call
// (Release, ReleaseNodes, or a helper that may assume ownership),
// returning it, storing it into a structure, capturing it in a closure,
// sending it on a channel, or proving it nil on the branch taken.
// Deferred releases — `defer m.Release(q)` or a deferred closure touching
// q — discharge the obligation for every later exit on the path,
// including panic exits, because deferred calls run during unwinding.
//
// At each exit edge of the CFG the interpreter reports what is still
// live, with the exit kind in the message: the return being taken, the
// fall-through end of the function, or the panic. Like refbalance it
// under-approximates — transfer is read broadly, loops are explored under
// a visit budget — so it misses some leaks but does not flag correct
// code.
package releasepath

import (
	"go/ast"
	"go/token"
	"go/types"

	"valois/internal/analysis/framework"
	"valois/internal/analysis/framework/cfg"
)

// Analyzer reports acquired references that some exit path abandons.
var Analyzer = &framework.Analyzer{
	Name: "releasepath",
	Doc:  "report exit paths (including early returns and panics) that abandon an acquired reference",
	Run:  run,
}

// maxStates bounds the number of distinct path states carried through a
// function; beyond it, excess states are dropped (under-approximation:
// fewer reports, never spurious ones).
const maxStates = 64

func run(pass *framework.Pass) (any, error) {
	a := &analysis{pass: pass, reported: make(map[reportKey]bool)}
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

type reportKey struct {
	pos  token.Pos
	kind cfg.EdgeKind
}

type analysis struct {
	pass     *framework.Pass
	reported map[reportKey]bool
	// results holds the named result variables of the current function:
	// assigning to one transfers ownership to the caller.
	results map[*types.Var]bool
}

// obligation records one outstanding acquired reference or epoch guard.
type obligation struct {
	pos    token.Pos // the acquiring call
	source string    // its callee name, for the message
	pin    bool      // a Pin guard (missing-unpin) rather than a counted reference
}

// state maps each live tracked variable to its obligation.
type state map[*types.Var]obligation

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
		Exit: a.exitCheck,
	}
	ip.Run(a.pass.FuncCFG(body), make(state))
}

// exitCheck runs on every edge into the exit block — this analyzer's
// whole point is that panic edges are NOT exempt.
func (a *analysis) exitCheck(e *cfg.Edge, st state) {
	for v, ob := range st {
		key := reportKey{pos: ob.pos, kind: e.Kind}
		if a.reported[key] {
			continue
		}
		a.reported[key] = true
		if ob.pin {
			// A lost guard is worse than a lost cell: the pinned epoch
			// never retires, so reclamation stalls globally.
			switch e.Kind {
			case cfg.Panic:
				a.pass.Categorizef("missing-unpin", ob.pos,
					"guard in %s (from %s) is lost when this path panics: unpin it in a defer, or the pinned epoch wedges reclamation for the whole structure", v.Name(), ob.source)
			case cfg.Return:
				if e.Ret != nil {
					a.pass.Categorizef("missing-unpin", ob.pos,
						"guard in %s (from %s) is not unpinned on the exit path through the return at line %d: the pinned epoch wedges reclamation", v.Name(), ob.source, a.pass.Fset.Position(e.Ret.Pos()).Line)
					continue
				}
				a.pass.Categorizef("missing-unpin", ob.pos,
					"guard in %s (from %s) is not unpinned on every exit path: the pinned epoch wedges reclamation", v.Name(), ob.source)
			default:
				a.pass.Categorizef("missing-unpin", ob.pos,
					"guard in %s (from %s) is not unpinned when the function falls off its end: the pinned epoch wedges reclamation", v.Name(), ob.source)
			}
			continue
		}
		switch e.Kind {
		case cfg.Panic:
			a.pass.Categorizef("exit-leak", ob.pos,
				"reference in %s (from %s) is lost when this path panics: release it in a defer so the count survives unwinding", v.Name(), ob.source)
		case cfg.Return:
			if e.Ret != nil {
				a.pass.Categorizef("exit-leak", ob.pos,
					"reference in %s (from %s) is not released or transferred on the exit path through the return at line %d", v.Name(), ob.source, a.pass.Fset.Position(e.Ret.Pos()).Line)
				continue
			}
			a.pass.Categorizef("exit-leak", ob.pos,
				"reference in %s (from %s) is not released or transferred on every exit path", v.Name(), ob.source)
		default: // ImplicitReturn: fell off the end of the function
			a.pass.Categorizef("exit-leak", ob.pos,
				"reference in %s (from %s) is not released or transferred when the function falls off its end", v.Name(), ob.source)
		}
	}
}

// discardedGuard reports a Pin whose guard is bound to nothing — a bare
// `m.Pin()` statement or `_ = m.Pin()`. No path can hand it to Unpin, so
// there is no exit to wait for.
func (a *analysis) discardedGuard(call *ast.CallExpr) {
	key := reportKey{pos: call.Pos()}
	if a.reported[key] {
		return
	}
	a.reported[key] = true
	a.pass.Categorizef("missing-unpin", call.Pos(),
		"guard returned by %s is discarded: it can never be unpinned, so the pinned epoch wedges reclamation", calleeName(call))
}

// applyNode interprets one evaluated CFG node against one state.
func (a *analysis) applyNode(n ast.Node, st state) {
	switch n := n.(type) {
	case *ast.ExprStmt:
		if call, ok := ast.Unparen(n.X).(*ast.CallExpr); ok && a.isPinCall(call) {
			a.discardedGuard(call)
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
		// A deferred call runs on every later exit of this path, panic
		// included: releases and transfers inside it discharge now.
		a.evalExpr(n.Call, st, false)

	case *ast.GoStmt:
		a.evalExpr(n.Call, st, false)

	case *ast.SendStmt:
		a.evalExpr(n.Chan, st, false)
		a.evalExpr(n.Value, st, true) // sending transfers ownership

	case *ast.IncDecStmt:
		a.evalExpr(n.X, st, false)

	case *ast.RangeStmt:
		// Per-iteration binding; the operand was its own node already.

	case ast.Expr:
		a.evalExpr(n, st, false)
	}
}

// refineNil applies the branch condition carried on a True/False edge: a
// reference known to be nil on the taken side carries no obligation.
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
	if nilSide {
		delete(st, v)
	}
}

func (a *analysis) interpAssign(s *ast.AssignStmt, st state) {
	if len(s.Lhs) == len(s.Rhs) {
		for i := range s.Rhs {
			a.assignOne(s.Lhs[i], s.Rhs[i], st)
		}
		return
	}
	for _, rhs := range s.Rhs {
		a.evalExpr(rhs, st, false)
	}
	for _, lhs := range s.Lhs {
		if lv := a.localVar(lhs); lv != nil {
			delete(st, lv) // overwriting is refbalance's concern
			continue
		}
		a.evalExpr(lhs, st, false)
	}
}

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
	if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok && (a.isAcquireCall(call) || a.isPinCall(call)) {
		a.evalExpr(call, st, false)
		if lv := a.localVar(lhs); lv != nil {
			st[lv] = obligation{pos: call.Pos(), source: calleeName(call), pin: a.isPinCall(call)}
			return
		}
		if id, ok := ast.Unparen(lhs).(*ast.Ident); ok && id.Name == "_" && a.isPinCall(call) {
			a.discardedGuard(call)
		}
		// Stored straight into a field or element: ownership transferred.
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
			ob := st[rv]
			delete(st, rv)
			delete(st, lv)
			st[lv] = ob
			return
		}
		delete(st, rv)
		a.evalExpr(lhs, st, false)
		return
	}
	a.evalExpr(rhs, st, a.localVar(lhs) == nil)
	if lv := a.localVar(lhs); lv != nil {
		delete(st, lv)
		return
	}
	a.evalExpr(lhs, st, false)
}

// evalExpr walks an expression, discharging tracked variables that occur
// in release- or transfer-positions. resolving reports whether e itself
// is in such a position.
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
		a.evalExpr(e.X, st, false) // q.Item: plain use, not a transfer
	case *ast.StarExpr:
		a.evalExpr(e.X, st, false)
	case *ast.UnaryExpr:
		a.evalExpr(e.X, st, e.Op == token.AND) // &q lets the reference escape
	case *ast.BinaryExpr:
		a.evalExpr(e.X, st, false)
		a.evalExpr(e.Y, st, false)
	case *ast.CallExpr:
		a.evalExpr(e.Fun, st, false)
		for _, arg := range e.Args {
			a.evalExpr(arg, st, true) // the callee may release or assume ownership
		}
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
// denotes, or nil.
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

// isAcquireCall recognizes the acquisition intrinsics: calls named
// SafeRead, safeRead, Alloc, or alloc returning a single pointer.
func (a *analysis) isAcquireCall(call *ast.CallExpr) bool {
	switch calleeName(call) {
	case "SafeRead", "safeRead", "Alloc", "alloc":
	default:
		return false
	}
	tv, ok := a.pass.TypesInfo.Types[call]
	if !ok {
		return false
	}
	_, isPtr := tv.Type.Underlying().(*types.Pointer)
	return isPtr
}

// isPinCall recognizes the epoch-guard acquisition shape: a call named
// Pin or pin returning a single value (the guard). Any single return
// type qualifies — guards are deliberately opaque (mm.Guard is a struct,
// other implementations hand out ints or pointers) — but a multi-value
// pin helper is left alone: its extra results make the idiomatic
// `g, ok := pin()` shape too varied to interpret soundly.
func (a *analysis) isPinCall(call *ast.CallExpr) bool {
	switch calleeName(call) {
	case "Pin", "pin":
	default:
		return false
	}
	tv, ok := a.pass.TypesInfo.Types[call]
	if !ok {
		return false
	}
	_, isTuple := tv.Type.(*types.Tuple)
	return !isTuple
}

// calleeName returns the simple name of the called function or method.
func calleeName(call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		return fun.Sel.Name
	case *ast.Ident:
		return fun.Name
	}
	return ""
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
