// Package abaguard defines an analyzer for the recycled-pointer ABA hazard
// of §5.1 of the paper.
//
// A Compare&Swap succeeds whenever the location holds the expected bit
// pattern — it cannot tell "the same cell, untouched" from "a different
// cell that reuses the same address". When the expected value was read
// with a plain Load, nothing stops the cell from being freed, recycled,
// and relinked between the Load and the CAS: the CAS then succeeds while
// every conclusion drawn from the cell in that window (its next pointer,
// its item) is stale. That is the classic lost-update pop:
//
//	q := head.Load()
//	head.CompareAndSwap(q, q.next.Load()) // q.next may belong to q's next life
//
// The paper's protocol closes the window with reference counts: SafeRead
// (Figure 15) acquires a counted reference, and Theorem 5 guarantees a
// counted cell is not reclaimed, so its address cannot be reused while we
// hold it. abaguard therefore flags a CAS whose expected value is a
// pointer obtained from a plain Load of shared memory and dereferenced
// between that Load and the CAS — the dereference is what makes the
// recycling observable, so a pure pointer hand-off (the push idiom, where
// the loaded value is only stored and compared) stays clean.
//
// The check is scoped to reference-counted cell types (structs with a
// sync/atomic ref* field, like mm.Node's refct): only manually reclaimed
// cells can be recycled while a plain pointer to them is held. Structures
// that lean on the garbage collector instead (the universal construction)
// get ABA freedom for free — a held pointer keeps its cell from being
// reused — and are deliberately out of scope.
package abaguard

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"valois/internal/analysis/framework"
)

// Analyzer reports CAS expected values read outside a SafeRead window.
var Analyzer = &framework.Analyzer{
	Name: "abaguard",
	Doc:  "report CAS expected values read with a plain Load and dereferenced before the CAS (ABA hazard)",
	Run:  run,
}

// assignKind classifies the provenance of a pointer variable's value.
type assignKind uint8

const (
	assignOther     assignKind = iota // unknown provenance: give the benefit of the doubt
	assignPlainLoad                   // plain Load of a shared atomic — unprotected
	assignProtected                   // SafeRead/Alloc result — counted, Theorem 5 applies
)

type assignment struct {
	pos  token.Pos
	kind assignKind
}

// funcState accumulates the per-function evidence: assignments and
// dereferences of each local pointer variable, and the CAS calls to judge.
type funcState struct {
	assigns map[*types.Var][]assignment
	derefs  map[*types.Var][]token.Pos
	cas     []*ast.CallExpr
}

func run(pass *framework.Pass) (any, error) {
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				checkFunc(pass, fd.Body)
			}
		}
	}
	return nil, nil
}

// checkFunc gathers the evidence in one function body and judges its CAS
// calls. Function literals are walked as part of the enclosing body:
// variables are distinguished by object identity, so the merge is safe.
func checkFunc(pass *framework.Pass, body *ast.BlockStmt) {
	st := &funcState{
		assigns: make(map[*types.Var][]assignment),
		derefs:  make(map[*types.Var][]token.Pos),
	}
	var path []ast.Node
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			path = path[:len(path)-1]
			return true
		}
		path = append(path, n)
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) == len(n.Rhs) {
				for i := range n.Rhs {
					st.recordAssign(pass, n.Lhs[i], n.Rhs[i])
				}
			}
		case *ast.ValueSpec:
			if len(n.Names) == len(n.Values) {
				for i := range n.Values {
					st.recordAssign(pass, n.Names[i], n.Values[i])
				}
			}
		case *ast.CallExpr:
			if isCASCall(pass, n) {
				st.cas = append(st.cas, n)
			}
		case *ast.Ident:
			// A dereference is a selector or star applied to the variable:
			// the moment cell contents are trusted.
			if v, ok := pass.TypesInfo.Uses[n].(*types.Var); ok && len(path) >= 2 {
				switch parent := path[len(path)-2].(type) {
				case *ast.SelectorExpr:
					if parent.X == ast.Expr(n) {
						st.derefs[v] = append(st.derefs[v], n.Pos())
					}
				case *ast.StarExpr:
					st.derefs[v] = append(st.derefs[v], n.Pos())
				}
			}
		}
		return true
	})

	for _, cas := range st.cas {
		st.judge(pass, cas)
	}
}

// recordAssign classifies one assignment's right-hand side.
func (st *funcState) recordAssign(pass *framework.Pass, lhs, rhs ast.Expr) {
	id, ok := ast.Unparen(lhs).(*ast.Ident)
	if !ok || id.Name == "_" {
		return
	}
	obj := pass.TypesInfo.Defs[id]
	if obj == nil {
		obj = pass.TypesInfo.Uses[id]
	}
	v, ok := obj.(*types.Var)
	if !ok || !isPointer(v.Type()) {
		return
	}
	kind := assignOther
	if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok {
		if fn := calleeFunc(pass, call); fn != nil {
			switch {
			case fn.Name() == "SafeRead" || fn.Name() == "safeRead" || fn.Name() == "Alloc":
				kind = assignProtected
			case fn.Name() == "Load" && isSharedLoad(pass, call):
				kind = assignPlainLoad
			}
		}
	}
	st.assigns[v] = append(st.assigns[v], assignment{pos: lhs.Pos(), kind: kind})
}

// judge reports cas when its expected value is a pointer variable whose
// latest assignment before the CAS is a plain shared Load, and the variable
// is dereferenced between that Load and the CAS.
func (st *funcState) judge(pass *framework.Pass, cas *ast.CallExpr) {
	expected := expectedArg(pass, cas)
	if expected == nil {
		return
	}
	id, ok := ast.Unparen(expected).(*ast.Ident)
	if !ok {
		return
	}
	v, ok := pass.TypesInfo.Uses[id].(*types.Var)
	if !ok || !isPointer(v.Type()) || !hasRefCountField(v.Type()) {
		return
	}
	// The latest assignment to v strictly before the CAS decides the
	// provenance of the compared value.
	last := assignment{kind: assignOther}
	found := false
	for _, a := range st.assigns[v] {
		if a.pos < cas.Pos() && (!found || a.pos > last.pos) {
			last = a
			found = true
		}
	}
	if !found || last.kind != assignPlainLoad {
		return
	}
	// The window closes at the end of the CAS call: the canonical hazard
	// dereferences the loaded pointer inside the new-value argument itself
	// (head.CompareAndSwap(q, q.next.Load())).
	for _, d := range st.derefs[v] {
		if last.pos < d && d < cas.End() {
			dpos := pass.Fset.Position(d)
			pass.Categorizef("aba", cas.Pos(),
				"CAS expected value %s comes from a plain Load and is dereferenced (line %d) before the CAS: the cell may be freed and recycled in between, so the CAS can succeed on a stale reading; acquire %s with SafeRead",
				v.Name(), dpos.Line, v.Name())
			return
		}
	}
}

// isSharedLoad reports whether a Load call reads shared memory. The only
// loads exempted are those of an atomic value held in a function-local
// variable and addressed directly — nothing else can see those.
func isSharedLoad(pass *framework.Pass, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return true
	}
	recv, ok := ast.Unparen(sel.X).(*ast.Ident)
	if !ok {
		return true // field chains (m.head), derived expressions: shared
	}
	v, ok := pass.TypesInfo.Uses[recv].(*types.Var)
	if !ok {
		return true
	}
	if v.IsField() || isPointer(v.Type()) {
		return true // fields and pointees live in shared memory
	}
	// A non-pointer local outside package scope is this goroutine's own.
	return v.Parent() == nil || v.Parent() == pass.Pkg.Scope()
}

func isPointer(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Pointer)
	return ok
}

// hasRefCountField reports whether the pointee is a reference-counted cell:
// a struct with a sync/atomic integer field whose name starts with "ref"
// (refct in internal/mm, following §5.1). The refcount is the marker for
// manual reclamation — only such cells can be freed and recycled while a
// plain pointer to them is held. Cells owned by the garbage collector are
// never reused while referenced, so the recycled-pointer ABA cannot arise
// for them and they are deliberately out of scope.
func hasRefCountField(t types.Type) bool {
	ptr, ok := t.Underlying().(*types.Pointer)
	if !ok {
		return false
	}
	st, ok := ptr.Elem().Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if !strings.HasPrefix(strings.ToLower(f.Name()), "ref") {
			continue
		}
		named, ok := f.Type().(*types.Named)
		if !ok || named.Obj().Pkg() == nil {
			continue
		}
		if named.Obj().Pkg().Path() == "sync/atomic" {
			switch named.Obj().Name() {
			case "Int32", "Int64", "Uint32", "Uint64":
				return true
			}
		}
	}
	return false
}

// isCASCall recognizes Compare&Swap in the spellings used here: a
// CompareAndSwap or CASXxx method, a sync/atomic CompareAndSwapXxx
// function, and the generic primitive.CompareAndSwap wrapper.
func isCASCall(pass *framework.Pass, call *ast.CallExpr) bool {
	fn := calleeFunc(pass, call)
	if fn == nil {
		return false
	}
	if fn.Type().(*types.Signature).Recv() != nil {
		return fn.Name() == "CompareAndSwap" || strings.HasPrefix(fn.Name(), "CAS")
	}
	return strings.HasPrefix(fn.Name(), "CompareAndSwap")
}

// expectedArg returns the expected-value argument of a CAS call: the first
// argument of the method forms, the second of the function forms.
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
