// Package casloop defines an analyzer for Compare&Swap retry loops.
//
// It enforces two properties of the paper's lock-free hot paths:
//
//  1. A CAS retry loop must re-load its expected value each iteration
//     (Figures 17 and 18: "q = Freelist" happens inside the loop). A CAS
//     whose expected value is computed once before the loop can never
//     succeed after the first failure — the loop livelocks, burning CPU
//     while making no progress.
//
//  2. The body of a CAS retry loop is a lock-free hot path; it must not
//     block. Calls to time.Sleep, sync.Mutex.Lock and friends, channel
//     operations, and select statements turn the non-blocking guarantee
//     of §1 into lock-based waiting (runtime.Gosched and the
//     primitive.Backoff spinner remain allowed — yielding is not
//     blocking).
//
// A CAS call is attributed to its innermost enclosing for statement;
// blocking calls in an outer loop that merely contains a nested retry
// loop are not flagged. Function literals are separate scopes.
package casloop

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"valois/internal/analysis/framework"
)

// Analyzer reports stale expected values and blocking calls in CAS loops.
var Analyzer = &framework.Analyzer{
	Name: "casloop",
	Doc:  "report CAS retry loops with stale expected values or blocking calls",
	Run:  run,
}

// loopInfo accumulates the CAS calls and blocking sites attributed to one
// for statement.
type loopInfo struct {
	stmt     *ast.ForStmt
	cas      []*ast.CallExpr
	blocking []blockSite
}

type blockSite struct {
	pos  token.Pos
	what string
}

func run(pass *framework.Pass) (any, error) {
	for _, f := range pass.Files {
		var loops []*loopInfo
		collect(pass, f, nil, &loops)
		for _, l := range loops {
			if len(l.cas) == 0 {
				continue
			}
			for _, b := range l.blocking {
				pass.Categorizef("blocking", b.pos, "%s inside a CAS retry loop blocks the lock-free hot path", b.what)
			}
			for _, cas := range l.cas {
				checkStaleExpected(pass, l.stmt, cas)
			}
		}
	}
	return nil, nil
}

// collect walks n, attributing CAS calls and blocking operations to cur,
// the innermost enclosing for statement. Nested for statements open a new
// attribution scope; function literals close it.
func collect(pass *framework.Pass, n ast.Node, cur *loopInfo, loops *[]*loopInfo) {
	switch n := n.(type) {
	case nil:
		return
	case *ast.FuncLit:
		collect(pass, n.Body, nil, loops)
		return
	case *ast.ForStmt:
		inner := &loopInfo{stmt: n}
		*loops = append(*loops, inner)
		collect(pass, n.Init, inner, loops)
		if n.Cond != nil {
			collect(pass, n.Cond, inner, loops)
		}
		collect(pass, n.Post, inner, loops)
		collect(pass, n.Body, inner, loops)
		return
	case *ast.CallExpr:
		if cur != nil {
			if isCASCall(pass, n) {
				cur.cas = append(cur.cas, n)
			}
			if what, ok := blockingCall(pass, n); ok {
				cur.blocking = append(cur.blocking, blockSite{pos: n.Pos(), what: what})
			}
		}
	case *ast.SendStmt:
		if cur != nil {
			cur.blocking = append(cur.blocking, blockSite{pos: n.Pos(), what: "channel send"})
		}
	case *ast.UnaryExpr:
		if cur != nil && n.Op == token.ARROW {
			cur.blocking = append(cur.blocking, blockSite{pos: n.Pos(), what: "channel receive"})
		}
	case *ast.SelectStmt:
		if cur != nil {
			cur.blocking = append(cur.blocking, blockSite{pos: n.Pos(), what: "select"})
		}
	}
	// Generic traversal of children within the same attribution scope.
	ast.Inspect(n, func(child ast.Node) bool {
		if child == n {
			return true
		}
		collect(pass, child, cur, loops)
		return false
	})
}

// isCASCall recognizes Compare&Swap in all three spellings used here: a
// CompareAndSwap method (typed atomics), a CompareAndSwapXxx function of
// sync/atomic, and the generic primitive.CompareAndSwap wrapper.
func isCASCall(pass *framework.Pass, call *ast.CallExpr) bool {
	fn := calleeFunc(pass, call)
	if fn == nil {
		return false
	}
	if fn.Type().(*types.Signature).Recv() != nil {
		return fn.Name() == "CompareAndSwap"
	}
	return strings.HasPrefix(fn.Name(), "CompareAndSwap")
}

// checkStaleExpected reports cas when its expected-value argument is a
// variable that is neither declared per-iteration nor re-assigned anywhere
// in the loop: the retry can then never observe a different expected value.
func checkStaleExpected(pass *framework.Pass, loop *ast.ForStmt, cas *ast.CallExpr) {
	old := expectedArg(pass, cas)
	if old == nil {
		return
	}
	id, ok := ast.Unparen(old).(*ast.Ident)
	if !ok {
		return
	}
	v, ok := pass.TypesInfo.Uses[id].(*types.Var)
	if !ok || v.IsField() || v.Pkg() == nil {
		return // nil, constants, fields, or non-variables
	}
	// Declared inside the loop body: fresh each iteration.
	if loop.Body.Pos() <= v.Pos() && v.Pos() <= loop.Body.End() {
		return
	}
	if assignedIn(pass, loop, v) {
		return
	}
	pass.Categorizef("stale-expected", cas.Pos(),
		"CAS expected value %s is never re-loaded inside the retry loop; the CAS cannot succeed after the first failure",
		v.Name())
}

// expectedArg returns the expected-value argument of a CAS call: the first
// argument of the method form, the second of the function forms.
func expectedArg(pass *framework.Pass, call *ast.CallExpr) ast.Expr {
	fn := calleeFunc(pass, call)
	if fn == nil {
		return nil
	}
	if fn.Type().(*types.Signature).Recv() != nil {
		if len(call.Args) == 2 {
			return call.Args[0]
		}
		return nil
	}
	if len(call.Args) == 3 {
		return call.Args[1]
	}
	return nil
}

// assignedIn reports whether v is assigned (or has its address taken, in
// which case a re-load through the pointer is possible) within the loop's
// body or post statement.
func assignedIn(pass *framework.Pass, loop *ast.ForStmt, v *types.Var) bool {
	found := false
	check := func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if refersTo(pass, lhs, v) {
					found = true
				}
			}
		case *ast.IncDecStmt:
			if refersTo(pass, n.X, v) {
				found = true
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND && refersTo(pass, n.X, v) {
				found = true
			}
		case *ast.RangeStmt:
			if refersTo(pass, n.Key, v) || refersTo(pass, n.Value, v) {
				found = true
			}
		}
		return !found
	}
	ast.Inspect(loop.Body, check)
	if loop.Post != nil {
		ast.Inspect(loop.Post, check)
	}
	return found
}

func refersTo(pass *framework.Pass, e ast.Expr, v *types.Var) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && pass.TypesInfo.Uses[id] == v
}

// blockingCall classifies calls that park the goroutine.
func blockingCall(pass *framework.Pass, call *ast.CallExpr) (string, bool) {
	fn := calleeFunc(pass, call)
	if fn == nil || fn.Pkg() == nil {
		return "", false
	}
	pkg, name := fn.Pkg().Path(), fn.Name()
	if sig := fn.Type().(*types.Signature); sig.Recv() != nil {
		if pkg == "sync" {
			switch name {
			case "Lock", "RLock", "Wait", "Do":
				return "sync." + recvTypeName(sig) + "." + name, true
			}
		}
		return "", false
	}
	if pkg == "time" && name == "Sleep" {
		return "time.Sleep", true
	}
	return "", false
}

func recvTypeName(sig *types.Signature) string {
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return t.String()
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
