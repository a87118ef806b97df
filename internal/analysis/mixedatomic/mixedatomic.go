// Package mixedatomic defines an analyzer that reports struct fields
// accessed both through sync/atomic functions and through plain reads or
// writes within a package.
//
// Valois's algorithms are correct only if every access to a shared word
// goes through the atomic primitives (§2.1, Figure 1): a single plain load
// of a field that other goroutines update with Compare&Swap is a data race
// and can observe torn or stale values. The Go race detector finds such
// races only when a test happens to interleave the two accesses; this
// analyzer finds the mixed usage statically.
//
// A field counts as atomically accessed when its address is passed to a
// function of the sync/atomic package (atomic.AddInt64(&s.n, 1) and
// friends). Typed atomics (atomic.Int64, atomic.Pointer[T]) need no
// checking here: their plain fields are unexported, so mixed access does
// not compile. Limitations: the analysis is per-package, initialization via
// composite literals is not reported (construction before publication is
// idiomatic), and a field whose address escapes to a non-atomic function is
// not tracked further.
package mixedatomic

import (
	"go/ast"
	"go/token"
	"go/types"

	"valois/internal/analysis/framework"
)

// Analyzer reports mixed atomic/plain access to struct fields.
var Analyzer = &framework.Analyzer{
	Name: "mixedatomic",
	Doc:  "report struct fields accessed both via sync/atomic and plainly",
	Run:  run,
}

func run(pass *framework.Pass) (any, error) {
	// Pass 1: find fields whose address reaches a sync/atomic call, and
	// remember those selector nodes so pass 2 does not re-flag them.
	atomicFields := make(map[*types.Var]token.Pos)
	blessed := make(map[*ast.SelectorExpr]bool)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || !isAtomicCall(pass, call) || len(call.Args) == 0 {
				return true
			}
			addr, ok := call.Args[0].(*ast.UnaryExpr)
			if !ok || addr.Op != token.AND {
				return true
			}
			sel, ok := ast.Unparen(addr.X).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if field := fieldOf(pass, sel); field != nil {
				if _, seen := atomicFields[field]; !seen {
					atomicFields[field] = sel.Pos()
				}
				blessed[sel] = true
			}
			return true
		})
	}
	if len(atomicFields) == 0 {
		return nil, nil
	}

	// Pass 2: any other selector of those fields is a plain access.
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok || blessed[sel] {
				return true
			}
			field := fieldOf(pass, sel)
			if field == nil {
				return true
			}
			if _, ok := atomicFields[field]; ok {
				pass.Categorizef("plain-access", sel.Pos(),
					"plain access to field %s, which is accessed with sync/atomic elsewhere in this package",
					field.Name())
			}
			return true
		})
	}
	return nil, nil
}

// isAtomicCall reports whether call invokes a package-level function of
// sync/atomic (the address-taking Load/Store/Add/Swap/CompareAndSwap
// family — the package exports nothing else at package level).
func isAtomicCall(pass *framework.Pass, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return false
	}
	return fn.Pkg().Path() == "sync/atomic" && fn.Type().(*types.Signature).Recv() == nil
}

// fieldOf returns the struct field a selector expression denotes, or nil.
func fieldOf(pass *framework.Pass, sel *ast.SelectorExpr) *types.Var {
	s, ok := pass.TypesInfo.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return nil
	}
	v, _ := s.Obj().(*types.Var)
	return v
}
