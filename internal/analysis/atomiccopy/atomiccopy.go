// Package atomiccopy defines an analyzer that reports copies of values
// whose type contains sync/atomic values, extending go vet's copylocks.
//
// Copying an atomic.Int64 or atomic.Pointer[T] detaches the copy from the
// original word: subsequent atomic operations act on different memory and
// every invariant built on them (reference counts, claim bits, list links)
// silently breaks. vet's copylocks catches many of these because the
// sync/atomic types embed a noCopy sentinel, but it stops at types it can
// prove have a Lock method; this analyzer tracks containment transitively
// through named structs and arrays, and also flags by-value parameters,
// results, returns, and range copies.
//
// Like copylocks, construction is allowed: composite literals and function
// calls produce fresh values, so assigning them is not a copy of a shared
// value.
package atomiccopy

import (
	"go/ast"
	"go/types"

	"valois/internal/analysis/framework"
)

// Analyzer reports copies of atomic-containing values.
var Analyzer = &framework.Analyzer{
	Name: "atomiccopy",
	Doc:  "report copies of structs containing sync/atomic values",
	Run:  run,
}

type checker struct {
	pass *framework.Pass
	// contains memoizes containsAtomic per type.
	contains map[types.Type]bool
}

func run(pass *framework.Pass) (any, error) {
	c := &checker{pass: pass, contains: make(map[types.Type]bool)}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for i, rhs := range n.Rhs {
					// Assigning to the blank identifier evaluates but
					// does not copy.
					if len(n.Lhs) == len(n.Rhs) && isBlank(n.Lhs[i]) {
						continue
					}
					c.checkCopy(rhs, "assignment copies")
				}
			case *ast.CallExpr:
				for _, arg := range n.Args {
					c.checkCopy(arg, "call passes")
				}
			case *ast.ReturnStmt:
				for _, res := range n.Results {
					c.checkCopy(res, "return copies")
				}
			case *ast.RangeStmt:
				if t := c.exprType(n.Value); t != nil && c.containsAtomic(t) {
					c.pass.Categorizef("copy", n.Value.Pos(),
						"range copies %s, which contains sync/atomic values; iterate by index or pointer",
						types.TypeString(t, types.RelativeTo(c.pass.Pkg)))
				}
			case *ast.FuncType:
				c.checkFieldList(n.Params, "parameter")
				c.checkFieldList(n.Results, "result")
			}
			return true
		})
	}
	return nil, nil
}

// checkCopy reports e if evaluating it copies an existing atomic-containing
// value: an identifier, field selection, dereference, or index — but not a
// composite literal or call, which construct fresh values.
func (c *checker) checkCopy(e ast.Expr, verb string) {
	switch ast.Unparen(e).(type) {
	case *ast.Ident, *ast.SelectorExpr, *ast.StarExpr, *ast.IndexExpr:
	default:
		return
	}
	tv, ok := c.pass.TypesInfo.Types[e]
	if !ok || !tv.IsValue() || !c.containsAtomic(tv.Type) {
		return
	}
	c.pass.Categorizef("copy", e.Pos(), "%s %s, which contains sync/atomic values; use a pointer",
		verb, types.TypeString(tv.Type, types.RelativeTo(c.pass.Pkg)))
}

// checkFieldList flags by-value parameters and results of atomic-containing
// type in function signatures.
func (c *checker) checkFieldList(fl *ast.FieldList, what string) {
	if fl == nil {
		return
	}
	for _, field := range fl.List {
		tv, ok := c.pass.TypesInfo.Types[field.Type]
		if !ok || !c.containsAtomic(tv.Type) {
			continue
		}
		c.pass.Categorizef("copy", field.Type.Pos(), "%s type %s contains sync/atomic values; use a pointer",
			what, types.TypeString(tv.Type, types.RelativeTo(c.pass.Pkg)))
	}
}

// containsAtomic reports whether t transitively contains a sync/atomic
// type by value (through struct fields and array elements; pointers,
// slices, maps, and channels break containment).
func (c *checker) containsAtomic(t types.Type) bool {
	if v, ok := c.contains[t]; ok {
		return v
	}
	c.contains[t] = false // cut recursion on cyclic types
	v := c.computeContains(t)
	c.contains[t] = v
	return v
}

func (c *checker) computeContains(t types.Type) bool {
	if named, ok := t.(*types.Named); ok {
		if pkg := named.Obj().Pkg(); pkg != nil && pkg.Path() == "sync/atomic" {
			if _, isStruct := named.Underlying().(*types.Struct); isStruct {
				return true
			}
		}
		return c.containsAtomic(named.Underlying())
	}
	switch t := t.(type) {
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			if c.containsAtomic(t.Field(i).Type()) {
				return true
			}
		}
	case *types.Array:
		return c.containsAtomic(t.Elem())
	}
	return false
}

// exprType resolves the type of e, looking through range-clause variable
// definitions (which go/types records in Defs rather than Types).
func (c *checker) exprType(e ast.Expr) types.Type {
	if e == nil {
		return nil
	}
	if id, ok := e.(*ast.Ident); ok {
		if obj := c.pass.TypesInfo.Defs[id]; obj != nil {
			return obj.Type()
		}
		if obj := c.pass.TypesInfo.Uses[id]; obj != nil {
			return obj.Type()
		}
	}
	if tv, ok := c.pass.TypesInfo.Types[e]; ok && tv.IsValue() {
		return tv.Type
	}
	return nil
}

func isBlank(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "_"
}
