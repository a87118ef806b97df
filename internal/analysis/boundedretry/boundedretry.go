// Package boundedretry defines an analyzer for retry loops that neither
// back off nor bound themselves.
//
// The repo's contention rule (DESIGN.md, PR 4) is that every retry loop
// backs off: a loop that re-attempts a failable operation at full speed
// turns transient contention into a CPU-saturating spin, which on the
// serving path also starves the goroutines that would resolve the
// contention. The sanctioned tools are primitive.Backoff (truncated
// exponential), runtime.Gosched, a time.Sleep, or an explicit bound on
// the loop itself.
//
// The analyzer flags an unconditionally-infinite `for` (no condition)
// that looks like a retry loop — its body re-attempts a failable
// operation, evidenced by a Compare&Swap call or an exit-on-success
// error shape (`if err == nil { break }` or `if err != nil { continue }`)
// — when the body has neither pacing (Backoff.Wait, runtime.Gosched,
// time.Sleep) nor any operation that already blocks the goroutine
// (select, channel operations, sync locking, accepting or reading a
// connection): a loop paced by blocking I/O is not a spin.
//
// Out of scope by design: bounded loops (`for i := 0; i < n;` ...),
// pure worker loops with no exit at all (goroleak's domain),
// consume-until-error loops (`if err != nil { return }` — the exit is
// the failure, so nothing is retried), and structural walks that exit
// on a bool or pointer condition (list traversals retry nothing).
package boundedretry

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"valois/internal/analysis/framework"
)

// Analyzer reports unbounded retry loops with no backoff.
var Analyzer = &framework.Analyzer{
	Name:    "boundedretry",
	Doc:     "report retry loops with neither a backoff nor a bound",
	Version: "v1",
	Run:     run,
}

// loopInfo accumulates what one infinite for statement contains.
type loopInfo struct {
	stmt     *ast.ForStmt
	cas      bool // a Compare&Swap call: the classic lock-free retry
	condExit bool // exit-on-success error shape: retry-until-nil-error
	pacing   bool // Backoff.Wait, runtime.Gosched, or time.Sleep
	blocking bool // select, channel op, lock, or connection I/O
}

func run(pass *framework.Pass) (any, error) {
	for _, f := range pass.Files {
		var loops []*loopInfo
		collect(pass, f, nil, &loops)
		for _, l := range loops {
			if !l.cas && !l.condExit {
				continue // not a retry loop
			}
			if l.pacing || l.blocking {
				continue
			}
			shape := "retry loop"
			if l.cas {
				shape = "CAS retry loop"
			}
			pass.Categorizef("unbounded", l.stmt.Pos(),
				"%s has neither a backoff nor a bound: spin at full speed saturates a core under contention (use primitive.Backoff, runtime.Gosched, or bound the loop)", shape)
		}
	}
	return nil, nil
}

// collect walks n, attributing retry evidence to cur, the innermost
// enclosing infinite for statement. Nested for statements open a new
// attribution scope; function literals close it.
func collect(pass *framework.Pass, n ast.Node, cur *loopInfo, loops *[]*loopInfo) {
	switch n := n.(type) {
	case nil:
		return
	case *ast.FuncLit:
		collect(pass, n.Body, nil, loops)
		return
	case *ast.ForStmt:
		if n.Cond == nil {
			inner := &loopInfo{stmt: n}
			*loops = append(*loops, inner)
			collect(pass, n.Body, inner, loops)
		} else {
			// A bounded loop: its own contents are fine, and it also
			// does not pace an enclosing loop.
			collect(pass, n.Body, nil, loops)
		}
		return
	case *ast.RangeStmt:
		if cur != nil {
			// Ranging (over a channel or a collection) inside the loop
			// paces it; the range's own contents open a fresh scope.
			cur.blocking = true
		}
		collect(pass, n.Body, nil, loops)
		return
	case *ast.IfStmt:
		if cur != nil && isRetryExit(pass, n) {
			cur.condExit = true
		}
	case *ast.SelectStmt:
		if cur != nil {
			cur.blocking = true
		}
	case *ast.SendStmt:
		if cur != nil {
			cur.blocking = true
		}
	case *ast.UnaryExpr:
		if cur != nil && n.Op == token.ARROW {
			cur.blocking = true
		}
	case *ast.CallExpr:
		if cur != nil {
			classifyCall(pass, n, cur)
		}
	}
	ast.Inspect(n, func(child ast.Node) bool {
		if child == n {
			return true
		}
		collect(pass, child, cur, loops)
		return false
	})
}

// isRetryExit reports whether the if statement is the exit-on-success
// half of a retry loop: a condition testing an error against nil, either
// leaving the loop when the error is nil (`if err == nil { break }`) or
// re-entering it when it is not (`if err != nil { continue }`). The
// symmetric consume shape — exit when err != nil — retries nothing and
// does not count.
func isRetryExit(pass *framework.Pass, ifs *ast.IfStmt) bool {
	if condComparesError(pass, ifs.Cond, token.EQL) && hasStmt(ifs, isExit) {
		return true
	}
	return condComparesError(pass, ifs.Cond, token.NEQ) && hasStmt(ifs, isContinue)
}

// condComparesError reports whether cond contains a comparison of an
// error-typed operand against nil with the given operator.
func condComparesError(pass *framework.Pass, cond ast.Expr, op token.Token) bool {
	found := false
	ast.Inspect(cond, func(n ast.Node) bool {
		b, ok := n.(*ast.BinaryExpr)
		if !ok || b.Op != op {
			return !found
		}
		for _, pair := range [2][2]ast.Expr{{b.X, b.Y}, {b.Y, b.X}} {
			if isNilIdent(pair[1]) && isErrorType(pass.TypesInfo.TypeOf(pair[0])) {
				found = true
			}
		}
		return !found
	})
	return found
}

func isNilIdent(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && id.Name == "nil"
}

func isErrorType(t types.Type) bool {
	if t == nil {
		return false
	}
	n, ok := t.(*types.Named)
	return ok && n.Obj().Pkg() == nil && n.Obj().Name() == "error"
}

func isExit(n ast.Node) bool {
	switch n := n.(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.BranchStmt:
		return n.Tok == token.BREAK
	}
	return false
}

func isContinue(n ast.Node) bool {
	b, ok := n.(*ast.BranchStmt)
	return ok && b.Tok == token.CONTINUE
}

// hasStmt reports whether the if statement (or its else chain) contains a
// node matching pred, function literals excluded.
func hasStmt(ifs *ast.IfStmt, pred func(ast.Node) bool) bool {
	found := false
	ast.Inspect(ifs, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if pred(n) {
			found = true
		}
		return !found
	})
	return found
}

// classifyCall marks cur according to what the call does: Compare&Swap
// (retry evidence), pacing, or blocking.
func classifyCall(pass *framework.Pass, call *ast.CallExpr, cur *loopInfo) {
	fn := calleeFunc(pass, call)
	if fn == nil {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return
	}
	if sig.Recv() != nil {
		switch {
		case fn.Name() == "CompareAndSwap":
			cur.cas = true
		case fn.Name() == "Wait" && recvNamed(sig) == "Backoff":
			cur.pacing = true
		case fn.Pkg() != nil && fn.Pkg().Path() == "sync":
			switch fn.Name() {
			case "Lock", "RLock", "Wait", "Do":
				cur.blocking = true
			}
		case fn.Name() == "Accept":
			cur.blocking = true
		case blockingIO[fn.Name()] && (deadlineCapable(recvType(sig)) || isBufio(recvType(sig))):
			// Reads through a connection or a bufio wrapper pace the
			// loop with real I/O.
			cur.blocking = true
		}
		return
	}
	if strings.HasPrefix(fn.Name(), "CompareAndSwap") {
		cur.cas = true
		return
	}
	if fn.Pkg() == nil {
		return
	}
	switch fn.Pkg().Path() {
	case "runtime":
		if fn.Name() == "Gosched" {
			cur.pacing = true
		}
	case "time":
		if fn.Name() == "Sleep" {
			cur.pacing = true
		}
	case "net":
		if strings.HasPrefix(fn.Name(), "Dial") || strings.HasPrefix(fn.Name(), "Listen") {
			cur.blocking = true
		}
	}
}

// blockingIO is the Read/Write family that parks the goroutine when the
// receiver is a connection.
var blockingIO = map[string]bool{
	"Read": true, "Write": true, "ReadFrom": true, "WriteTo": true,
	"ReadString": true, "ReadBytes": true, "ReadByte": true, "ReadRune": true,
	"ReadSlice": true, "ReadLine": true, "Peek": true, "Flush": true,
}

// isBufio reports whether t (or its pointee) is a bufio type; its blocking
// methods forward to whatever reader or writer it wraps.
func isBufio(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	return ok && n.Obj().Pkg() != nil && n.Obj().Pkg().Path() == "bufio"
}

// deadlineCapable reports whether t (or its pointee) has a SetDeadline
// method — the shape of net.Conn and everything wrapping one.
func deadlineCapable(t types.Type) bool {
	if t == nil {
		return false
	}
	obj, _, _ := types.LookupFieldOrMethod(t, true, nil, "SetDeadline")
	_, ok := obj.(*types.Func)
	return ok
}

func recvType(sig *types.Signature) types.Type {
	if sig.Recv() == nil {
		return nil
	}
	return sig.Recv().Type()
}

func recvNamed(sig *types.Signature) string {
	t := recvType(sig)
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	switch t := t.(type) {
	case *types.Named:
		return t.Obj().Name()
	case *types.Alias:
		return t.Obj().Name()
	}
	return ""
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
