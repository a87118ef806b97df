// Package goroleak defines an analyzer for goroutines that can never
// terminate.
//
// The serving stack spawns goroutines freely — one per accepted
// connection, per proxy direction, per load-generator worker — and every
// one of them must have a reachable termination path: a return, a
// done-channel or context select arm that returns, a bounded loop, or a
// call that ends the goroutine. A goroutine whose body is an infinite
// loop with no escape survives until process exit, pinning its stack and
// everything it references; under goroutine-per-connection serving that
// is an unbounded leak.
//
// The analyzer flags each `go` statement whose spawned function provably
// never returns:
//
//   - its unconditionally-executed spine contains an infinite `for` loop
//     (no condition) whose body has no escape — no return, no break or
//     goto out of the loop, and no terminating call (panic, os.Exit,
//     runtime.Goexit, log.Fatal*);
//   - or the spine reaches an empty select (`select {}`), which blocks
//     forever by definition;
//   - or the spine calls a function already known to never return.
//
// The "never returns" property is interprocedural: it is computed as a
// fixpoint over the package's functions and exported as a NoReturn fact,
// so a `go pkg.Serve()` in one package is flagged when pkg.Serve spins
// forever in another. Loops with conditions, range loops (including
// `for range ch`, which terminates when the channel closes), and loops
// with any escape are never flagged: the analyzer only reports goroutines
// with no termination path at all.
package goroleak

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"valois/internal/analysis/framework"
)

// Analyzer reports go statements spawning functions that never return.
var Analyzer = &framework.Analyzer{
	Name:      "goroleak",
	Doc:       "report go statements whose goroutine has no termination path",
	FactTypes: []framework.Fact{(*NoReturn)(nil)},
	Run:       run,
}

// NoReturn is exported for every function that provably never returns,
// making the property visible across package boundaries.
type NoReturn struct{}

// AFact marks NoReturn as a framework.Fact.
func (*NoReturn) AFact() {}

func run(pass *framework.Pass) (any, error) {
	// Collect the package's function declarations, then compute the
	// never-returns set as a fixpoint: a function whose spine calls a
	// just-discovered non-returning function becomes non-returning too.
	decls := make(map[*types.Func]*ast.FuncDecl)
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			if obj, ok := pass.TypesInfo.Defs[fn.Name].(*types.Func); ok {
				decls[obj] = fn
			}
		}
	}
	noret := make(map[*types.Func]bool)
	for changed := true; changed; {
		changed = false
		for obj, fn := range decls {
			if noret[obj] {
				continue
			}
			if spineNeverReturns(pass, fn.Body.List, noret) {
				noret[obj] = true
				changed = true
			}
		}
	}
	for obj := range noret {
		pass.ExportObjectFact(obj, &NoReturn{})
	}

	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			switch fun := ast.Unparen(g.Call.Fun).(type) {
			case *ast.FuncLit:
				if spineNeverReturns(pass, fun.Body.List, noret) {
					pass.Categorizef("goroutine-leak", g.Pos(),
						"goroutine never terminates: the function literal has no return, break, or terminating call on any path")
				}
			default:
				fn := calleeFunc(pass, g.Call)
				if fn != nil && isNoReturnFunc(pass, fn, noret) {
					pass.Categorizef("goroutine-leak", g.Pos(),
						"goroutine never terminates: %s has no return, break, or terminating call on any path", fn.Name())
				}
			}
			return true
		})
	}
	return nil, nil
}

// spineNeverReturns reports whether executing stmts in order provably
// never completes. Only unconditionally-executed statements are examined
// (the spine): nested blocks and labeled statements are followed,
// branches are not — a function that merely may loop forever is not
// flagged.
func spineNeverReturns(pass *framework.Pass, stmts []ast.Stmt, noret map[*types.Func]bool) bool {
	for _, s := range stmts {
		switch s := s.(type) {
		case *ast.ReturnStmt:
			return false
		case *ast.BlockStmt:
			if spineNeverReturns(pass, s.List, noret) {
				return true
			}
		case *ast.LabeledStmt:
			if spineNeverReturns(pass, []ast.Stmt{s.Stmt}, noret) {
				return true
			}
		case *ast.ForStmt:
			if s.Cond == nil && !loopEscapes(pass, s) {
				return true
			}
		case *ast.SelectStmt:
			if len(s.Body.List) == 0 {
				return true // select{} blocks forever
			}
		case *ast.ExprStmt:
			if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok {
				if fn := calleeFunc(pass, call); fn != nil && isNoReturnFunc(pass, fn, noret) {
					return true
				}
			}
		}
	}
	return false
}

// isNoReturnFunc reports whether fn is known to never return, either from
// this package's fixpoint or from a NoReturn fact exported by fn's own
// package.
func isNoReturnFunc(pass *framework.Pass, fn *types.Func, noret map[*types.Func]bool) bool {
	if noret[fn] {
		return true
	}
	var fact NoReturn
	return pass.ImportObjectFact(fn, &fact)
}

// loopEscapes reports whether the body of the infinite loop l contains any
// way out: a return, an unlabeled break targeting l, any labeled break or
// goto (labels only lead outward), or a call that terminates the
// goroutine. Function literals inside the body are separate goroutine-less
// scopes and are skipped.
func loopEscapes(pass *framework.Pass, l *ast.ForStmt) bool {
	escapes := false
	// nested tracks whether an enclosing for/range/switch/select sits
	// between the current node and l, which retargets unlabeled breaks.
	var scan func(n ast.Node, nested bool)
	scan = func(n ast.Node, nested bool) {
		if escapes || n == nil {
			return
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			return
		case *ast.ReturnStmt:
			escapes = true
			return
		case *ast.BranchStmt:
			switch n.Tok {
			case token.BREAK:
				if n.Label != nil || !nested {
					escapes = true
				}
			case token.GOTO:
				escapes = true
			}
			return
		case *ast.CallExpr:
			if isTerminatingCall(pass, n) {
				escapes = true
				return
			}
		case *ast.ForStmt, *ast.RangeStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
			nested = true
		}
		ast.Inspect(n, func(child ast.Node) bool {
			if child == n {
				return true
			}
			scan(child, nested)
			return false
		})
	}
	scan(l.Body, false)
	return escapes
}

// isTerminatingCall recognizes calls that end the goroutine (or the whole
// process): panic, os.Exit, runtime.Goexit, log.Fatal and variants.
func isTerminatingCall(pass *framework.Pass, call *ast.CallExpr) bool {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := pass.TypesInfo.Uses[id].(*types.Builtin); ok {
			return b.Name() == "panic"
		}
	}
	fn := calleeFunc(pass, call)
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	switch fn.Pkg().Path() {
	case "os":
		return fn.Name() == "Exit"
	case "runtime":
		return fn.Name() == "Goexit"
	case "log":
		return strings.HasPrefix(fn.Name(), "Fatal") || strings.HasPrefix(fn.Name(), "Panic")
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
	}
	return nil
}
