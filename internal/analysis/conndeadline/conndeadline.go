// Package conndeadline defines an analyzer for blocking network I/O that
// no deadline bounds.
//
// A Read or Write on a net.Conn without a deadline can block forever: a
// peer that stops sending (or stops draining) parks the goroutine
// indefinitely, and under goroutine-per-connection serving a handful of
// such peers exhausts the server. The serving stack's rule (DESIGN.md §7)
// is that every blocking operation on a connection happens under a
// deadline armed beforehand.
//
// The analyzer flags, per function:
//
//   - Read/Write-family method calls on a deadline-capable value (any
//     type with a SetDeadline method: net.Conn implementations and
//     wrappers alike);
//   - method calls on a bufio.Reader or bufio.Writer that was constructed
//     in the same function around a deadline-capable value;
//   - io.Copy, io.CopyN, io.ReadAll, and io.ReadFull calls given a
//     deadline-capable argument;
//
// unless some SetDeadline, SetReadDeadline, or SetWriteDeadline call
// occurs earlier (in source order) in the same function — arming any
// deadline before the first blocking operation is taken as evidence the
// function manages its I/O budget. Methods whose own receiver is
// deadline-capable are skipped entirely: a wrapper type forwarding Read
// to an inner connection inherits its caller's deadline discipline, and
// flagging the forwarder would indict every implementation of net.Conn.
package conndeadline

import (
	"go/ast"
	"go/token"
	"go/types"

	"valois/internal/analysis/framework"
)

// Analyzer reports blocking connection I/O with no preceding deadline.
var Analyzer = &framework.Analyzer{
	Name: "conndeadline",
	Doc:  "report blocking net.Conn I/O with no deadline armed before it",
	Run:  run,
}

// blockingMethods are the I/O methods that park the goroutine until the
// peer acts (or a deadline fires).
var blockingMethods = map[string]bool{
	"Read": true, "Write": true, "ReadFrom": true, "WriteTo": true,
	"ReadString": true, "ReadBytes": true, "ReadSlice": true,
	"ReadLine": true, "ReadByte": true, "ReadRune": true, "Peek": true,
	"WriteString": true, "WriteByte": true, "WriteRune": true, "Flush": true,
}

// ioBlockers are the io helpers that loop over Read/Write internally.
var ioBlockers = map[string]bool{
	"Copy": true, "CopyN": true, "ReadAll": true, "ReadFull": true,
}

func run(pass *framework.Pass) (any, error) {
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			if recvDeadlineCapable(pass, fn) {
				continue // a conn wrapper: its caller owns the deadlines
			}
			checkFunc(pass, fn.Body)
		}
	}
	return nil, nil
}

type site struct {
	pos  token.Pos
	what string
}

// checkFunc scans one function body (function literals included — they
// share the enclosing function's deadline discipline, and source order
// still approximates domination) for deadline arms and blocking I/O,
// then reports every blocking site no arm precedes.
func checkFunc(pass *framework.Pass, body *ast.BlockStmt) {
	var arms []token.Pos
	var blocks []site
	buffered := bufioOverConns(pass, body)

	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(pass, call)
		if fn == nil {
			return true
		}
		sig, ok := fn.Type().(*types.Signature)
		if !ok {
			return true
		}
		if sig.Recv() != nil {
			switch fn.Name() {
			case "SetDeadline", "SetReadDeadline", "SetWriteDeadline":
				arms = append(arms, call.Pos())
				return true
			}
			if !blockingMethods[fn.Name()] {
				return true
			}
			sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			recv := ast.Unparen(sel.X)
			if t := pass.TypesInfo.TypeOf(recv); t != nil && deadlineCapable(t) {
				blocks = append(blocks, site{call.Pos(), fn.Name() + " on connection"})
				return true
			}
			if id, ok := recv.(*ast.Ident); ok && buffered[pass.TypesInfo.ObjectOf(id)] {
				blocks = append(blocks, site{call.Pos(), fn.Name() + " on connection-backed " + bufioTypeName(pass, recv)})
			}
			return true
		}
		if fn.Pkg() != nil && fn.Pkg().Path() == "io" && ioBlockers[fn.Name()] {
			for _, arg := range call.Args {
				t := pass.TypesInfo.TypeOf(arg)
				argConn := t != nil && deadlineCapable(t)
				if !argConn {
					if id, ok := ast.Unparen(arg).(*ast.Ident); ok && buffered[pass.TypesInfo.ObjectOf(id)] {
						argConn = true
					}
				}
				if argConn {
					blocks = append(blocks, site{call.Pos(), "io." + fn.Name() + " over a connection"})
					break
				}
			}
		}
		return true
	})

	for _, b := range blocks {
		armed := false
		for _, a := range arms {
			if a < b.pos {
				armed = true
				break
			}
		}
		if !armed {
			pass.Categorizef("no-deadline", b.pos,
				"blocking %s with no deadline: no SetDeadline/SetReadDeadline/SetWriteDeadline call precedes it in this function", b.what)
		}
	}
}

// bufioOverConns finds variables assigned from bufio.NewReader/NewWriter/
// NewReadWriter around a deadline-capable value: blocking through them is
// blocking on the connection.
func bufioOverConns(pass *framework.Pass, body *ast.BlockStmt) map[types.Object]bool {
	out := make(map[types.Object]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 {
			return true
		}
		call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(pass, call)
		if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "bufio" {
			return true
		}
		switch fn.Name() {
		case "NewReader", "NewWriter", "NewReadWriter", "NewReaderSize", "NewWriterSize":
		default:
			return true
		}
		overConn := false
		for _, arg := range call.Args {
			if t := pass.TypesInfo.TypeOf(arg); t != nil && deadlineCapable(t) {
				overConn = true
			}
		}
		if !overConn {
			return true
		}
		for _, lhs := range as.Lhs {
			if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
				if obj := pass.TypesInfo.ObjectOf(id); obj != nil {
					out[obj] = true
				}
			}
		}
		return true
	})
	return out
}

// deadlineCapable reports whether t (or its pointee) has a SetDeadline
// method — the shape of net.Conn and everything wrapping one. os.File
// also has SetDeadline (for pipes), but regular-file I/O does not block
// on a peer, so files are excluded.
func deadlineCapable(t types.Type) bool {
	if isOSFile(t) {
		return false
	}
	obj, _, _ := types.LookupFieldOrMethod(t, true, nil, "SetDeadline")
	if _, ok := obj.(*types.Func); ok {
		return true
	}
	return false
}

func isOSFile(t types.Type) bool {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	return ok && n.Obj().Pkg() != nil && n.Obj().Pkg().Path() == "os" && n.Obj().Name() == "File"
}

// recvDeadlineCapable reports whether fn is a method on a deadline-capable
// type.
func recvDeadlineCapable(pass *framework.Pass, fn *ast.FuncDecl) bool {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return false
	}
	t := pass.TypesInfo.TypeOf(fn.Recv.List[0].Type)
	return t != nil && deadlineCapable(t)
}

func bufioTypeName(pass *framework.Pass, e ast.Expr) string {
	t := pass.TypesInfo.TypeOf(e)
	if t == nil {
		return "buffer"
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return "bufio." + n.Obj().Name()
	}
	return "buffer"
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
	}
	return nil
}
