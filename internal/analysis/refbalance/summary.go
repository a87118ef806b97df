package refbalance

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"valois/internal/analysis/framework"
)

// ParamEffect describes what a function does with the counted reference a
// caller passes in one parameter. The values form a small lattice ordered
// Neutral < Transfers < Releases; summary computation takes the maximum of
// the effects observed, erring toward the effects that silence reports.
type ParamEffect uint8

const (
	// ParamNeutral: the function only inspects the argument (reads fields,
	// compares it); the caller's reference obligation survives the call.
	// This is the effect that makes the analysis interprocedural: with the
	// canonical intraprocedural assumption "any call may take ownership", a
	// reference leaked across a read-only helper call is invisible.
	ParamNeutral ParamEffect = iota

	// ParamTransfers: the function takes ownership of the reference (stores
	// it into a structure, hands it to unknown code); the caller's
	// obligation is discharged, and later releases are its own business.
	ParamTransfers

	// ParamReleases: the function releases the reference (it reaches a
	// Release/ReleaseNodes call); the caller's obligation is discharged and
	// releasing the same reference again is a double release.
	ParamReleases
)

// Summary is the per-function refcount fact computed bottom-up over the
// package dependency graph: which results carry a +1 counted reference the
// caller must balance, and what happens to the references passed in each
// parameter. The zero Summary (no +1 results, all parameters neutral) is
// meaningful and distinct from "no summary known": an absent summary makes
// the checker assume every argument is consumed (lenient), while a neutral
// summary keeps the caller's obligation alive.
type Summary struct {
	// Results[i] reports whether result i carries a +1 reference.
	Results []bool
	// Params[i] is the effect on parameter i. For variadic functions the
	// last entry covers every expanded argument.
	Params []ParamEffect
	// NilTogether reports that the function's +1 results are correlated:
	// every return delivers either all of them non-nil or all of them nil
	// (the both-or-neither allocation idiom of AllocInsertNodes). Callers
	// link such references into a group, and proving any one nil
	// discharges the whole group. Only meaningful with two or more +1
	// results.
	NilTogether bool
}

// AFact marks Summary as a framework fact.
func (*Summary) AFact() {}

// plusResult reports whether the summary marks result i as +1.
func (s *Summary) plusResult(i int) bool {
	return s != nil && i < len(s.Results) && s.Results[i]
}

// paramEffect returns the effect on argument position j, expanding the
// variadic tail.
func (s *Summary) paramEffect(j int) ParamEffect {
	if s == nil || len(s.Params) == 0 {
		return ParamTransfers
	}
	if j >= len(s.Params) {
		j = len(s.Params) - 1
	}
	return s.Params[j]
}

// isPointer reports whether t is (or is a named type whose underlying is) a
// pointer — the only values that can carry a counted reference.
func isPointer(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Pointer)
	return ok
}

// intrinsicSummary recognizes the paper's protocol functions by name, the
// same convention the releasepath analyzer uses. Name-based recognition keeps
// the analyzers applicable to both the real managers (mm.RC, the List
// wrappers) and test fixtures, and it takes precedence over computed
// summaries: mm.RC.SafeRead's own body acquires its +1 via a bare
// refct.Add the computation cannot see.
func intrinsicSummary(fn *types.Func) *Summary {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return nil
	}
	neutralParams := func() []ParamEffect {
		return make([]ParamEffect, sig.Params().Len())
	}
	switch fn.Name() {
	case "SafeRead", "safeRead", "Alloc":
		// Figure 15 / Figure 17: the returned cell carries one reference
		// owned by the caller.
		if sig.Results().Len() == 1 && isPointer(sig.Results().At(0).Type()) {
			return &Summary{Results: []bool{true}, Params: neutralParams()}
		}
	case "Release", "release":
		// Figure 16: the argument's reference is given back.
		if sig.Params().Len() >= 1 && isPointer(sig.Params().At(0).Type()) {
			p := neutralParams()
			p[0] = ParamReleases
			return &Summary{Results: make([]bool, sig.Results().Len()), Params: p}
		}
	case "ReleaseNodes", "releaseNodes":
		if sig.Params().Len() >= 1 {
			p := neutralParams()
			for i := range p {
				p[i] = ParamReleases
			}
			return &Summary{Results: make([]bool, sig.Results().Len()), Params: p}
		}
	case "AddRef", "addRef":
		// Acquires an extra reference to a cell the caller already holds;
		// it neither consumes nor releases the argument.
		return &Summary{Results: make([]bool, sig.Results().Len()), Params: neutralParams()}
	}
	return nil
}

// summarizer computes the per-function summaries of one package, consulting
// imported facts for out-of-package callees.
type summarizer struct {
	pass  *framework.Pass
	local map[*types.Func]*Summary
}

// computeSummaries builds summaries for every function declared in the
// package, iterating to a fixpoint so intra-package helper chains resolve
// regardless of declaration order, then exports each as a fact for the
// packages that import this one.
func computeSummaries(pass *framework.Pass) *summarizer {
	s := &summarizer{pass: pass, local: make(map[*types.Func]*Summary)}

	var decls []*ast.FuncDecl
	var fns []*types.Func
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			decls = append(decls, fd)
			fns = append(fns, fn)
		}
	}
	// Deterministic iteration order, so summaries (and through them the
	// diagnostics) are identical across runs.
	order := make([]int, len(decls))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		return framework.ObjectKey(fns[order[a]]) < framework.ObjectKey(fns[order[b]])
	})

	// The effects only grow along the Neutral < Transfers < Releases order
	// and the +1 sets only grow, so iteration converges; the bound is
	// insurance against a modeling bug.
	for iter := 0; iter < 8; iter++ {
		changed := false
		for _, i := range order {
			next := s.summarizeFunc(decls[i], fns[i])
			if !summariesEqual(s.local[fns[i]], next) {
				s.local[fns[i]] = next
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	for _, i := range order {
		pass.ExportObjectFact(fns[i], s.local[fns[i]])
	}
	return s
}

// summaryFor resolves the summary of a call's callee: protocol intrinsics
// first, then this package's computed summaries, then facts imported from
// dependency packages. nil means unknown: the checker then assumes every
// argument is consumed.
func (s *summarizer) summaryFor(fn *types.Func) *Summary {
	if fn == nil {
		return nil
	}
	if sum := intrinsicSummary(fn); sum != nil {
		return sum
	}
	if sum, ok := s.local[fn]; ok {
		return sum
	}
	var imported Summary
	if s.pass.ImportObjectFact(fn, &imported) {
		return &imported
	}
	return nil
}

// summarizeFunc computes one function's summary from its body, given the
// current fixpoint state.
func (s *summarizer) summarizeFunc(fd *ast.FuncDecl, fn *types.Func) *Summary {
	sig := fn.Type().(*types.Signature)
	sum := &Summary{
		Results: make([]bool, sig.Results().Len()),
		Params:  make([]ParamEffect, sig.Params().Len()),
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if isPointer(sig.Params().At(i).Type()) {
			sum.Params[i] = s.paramEffect(fd, sig.Params().At(i))
		}
	}
	plus := s.plusVars(fd)
	for i := 0; i < sig.Results().Len(); i++ {
		if isPointer(sig.Results().At(i).Type()) {
			sum.Results[i] = s.resultPlus(fd, sig, i, plus)
		}
	}
	sum.NilTogether = s.nilTogether(fd, sig, sum)
	return sum
}

// nilTogether decides whether the function's +1 results are born
// correlated: with at least two +1 results, every explicit return must
// deliver either nil literals in all +1 positions or non-nil expressions
// in all of them. Naked returns and forwards of calls without the
// property veto — leniency here means fewer discharged obligations, never
// spurious reports.
func (s *summarizer) nilTogether(fd *ast.FuncDecl, sig *types.Signature, sum *Summary) bool {
	plusCount := 0
	for _, p := range sum.Results {
		if p {
			plusCount++
		}
	}
	if plusCount < 2 {
		return false
	}
	ok := true
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if !ok {
			return false
		}
		if _, isLit := n.(*ast.FuncLit); isLit {
			return false // separate function, separate returns
		}
		ret, isRet := n.(*ast.ReturnStmt)
		if !isRet {
			return true
		}
		switch {
		case len(ret.Results) == sig.Results().Len():
			nils := 0
			for i, res := range ret.Results {
				if !sum.Results[i] {
					continue
				}
				if tv, found := s.pass.TypesInfo.Types[ast.Unparen(res)]; found && tv.IsNil() {
					nils++
				}
			}
			if nils != 0 && nils != plusCount {
				ok = false // a mixed return breaks the correlation
			}
		case len(ret.Results) == 1:
			// return f() forwarding a multi-result call inherits the
			// callee's correlation.
			call, isCall := ast.Unparen(ret.Results[0]).(*ast.CallExpr)
			if !isCall {
				ok = false
				return true
			}
			fsum := s.summaryFor(calleeFunc(s.pass, call))
			if fsum == nil || !fsum.NilTogether {
				ok = false
			}
		default: // naked return: correlation unknowable
			ok = false
		}
		return true
	})
	return ok
}

// paramEffect classifies every use of parameter p in the body and joins
// the observations: reads and comparisons are neutral; an argument position
// takes the callee's declared effect; everything that lets the value escape
// (returned, stored, captured, address taken, unknown callee) transfers
// ownership. Aliases of the parameter are not followed.
func (s *summarizer) paramEffect(fd *ast.FuncDecl, p *types.Var) ParamEffect {
	effect := ParamNeutral
	s.walkUses(fd.Body, p, func(path []ast.Node) {
		if e := s.classifyUse(path); e > effect {
			effect = e
		}
	})
	return effect
}

// walkUses calls visit for every identifier in body resolving to v, with
// the ancestor path (outermost first, the identifier last). ast.Inspect
// visits nil on the way out of each node, which pops the path stack.
func (s *summarizer) walkUses(body ast.Node, v *types.Var, visit func(path []ast.Node)) {
	var path []ast.Node
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			path = path[:len(path)-1]
			return true
		}
		path = append(path, n)
		if id, ok := n.(*ast.Ident); ok && s.pass.TypesInfo.Uses[id] == v {
			visit(append([]ast.Node(nil), path...))
		}
		return true
	})
}

// classifyUse maps one occurrence of a tracked parameter (the last path
// element) to its effect.
func (s *summarizer) classifyUse(path []ast.Node) ParamEffect {
	id := path[len(path)-1].(*ast.Ident)
	// A use anywhere inside a function literal escapes into the closure.
	for _, n := range path[:len(path)-1] {
		if _, ok := n.(*ast.FuncLit); ok {
			return ParamTransfers
		}
	}
	if len(path) < 2 {
		return ParamNeutral
	}
	parent := path[len(path)-2]
	// Look through parentheses.
	for {
		p, ok := parent.(*ast.ParenExpr)
		if !ok {
			break
		}
		idx := indexOf(path, p)
		if idx <= 0 {
			break
		}
		parent = path[idx-1]
	}
	switch parent := parent.(type) {
	case *ast.SelectorExpr:
		// p.field read or p.method(...) receiver: inspection only.
		return ParamNeutral
	case *ast.BinaryExpr, *ast.StarExpr, *ast.IndexExpr, *ast.SliceExpr,
		*ast.IfStmt, *ast.ForStmt, *ast.SwitchStmt, *ast.CaseClause,
		*ast.TypeAssertExpr, *ast.IncDecStmt, *ast.ExprStmt:
		return ParamNeutral
	case *ast.UnaryExpr:
		if parent.Op == token.AND {
			return ParamTransfers
		}
		return ParamNeutral
	case *ast.CallExpr:
		if ast.Unparen(parent.Fun) == ast.Expr(id) {
			return ParamNeutral // calling through the variable, not passing it
		}
		for j, arg := range parent.Args {
			if ast.Unparen(arg) == ast.Expr(id) {
				if cas, ok := casShape(s.pass, parent); ok {
					// Compare&Swap only reads its expected argument; the
					// stored new value is a transfer.
					switch j {
					case cas.expected:
						return ParamNeutral
					case cas.new:
						return ParamTransfers
					}
					return ParamNeutral // the location argument
				}
				sum := s.summaryFor(calleeFunc(s.pass, parent))
				if sum == nil {
					return ParamTransfers
				}
				switch sum.paramEffect(j) {
				case ParamReleases:
					return ParamReleases
				case ParamNeutral:
					return ParamNeutral
				default:
					return ParamTransfers
				}
			}
		}
		return ParamNeutral
	default:
		// Returned, assigned, stored in a composite, sent on a channel,
		// ranged over, deferred... — ownership leaves the function's hands.
		return ParamTransfers
	}
}

// plusVars over-approximates the set of local variables (and named results)
// that were assigned a +1 reference somewhere in the body: direct results
// of +1 calls, and transfers from other such variables.
func (s *summarizer) plusVars(fd *ast.FuncDecl) map[*types.Var]bool {
	plus := make(map[*types.Var]bool)
	for iter := 0; iter < 4; iter++ {
		changed := false
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			mark := func(lhs ast.Expr) {
				if v := usedOrDefinedVar(s.pass, lhs); v != nil && !plus[v] {
					plus[v] = true
					changed = true
				}
			}
			if len(as.Lhs) == len(as.Rhs) {
				for i := range as.Rhs {
					rhs := ast.Unparen(as.Rhs[i])
					if call, ok := rhs.(*ast.CallExpr); ok {
						if sum := s.summaryFor(calleeFunc(s.pass, call)); sum.plusResult(0) {
							mark(as.Lhs[i])
						}
						continue
					}
					if v := usedOrDefinedVar(s.pass, rhs); v != nil && plus[v] {
						mark(as.Lhs[i])
					}
				}
			} else if len(as.Rhs) == 1 {
				if call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr); ok {
					sum := s.summaryFor(calleeFunc(s.pass, call))
					for i := range as.Lhs {
						if sum.plusResult(i) {
							mark(as.Lhs[i])
						}
					}
				}
			}
			return true
		})
		if !changed {
			break
		}
	}
	return plus
}

// resultPlus decides whether result i carries a +1 reference: at least one
// return statement must deliver one, and no return statement may deliver a
// value of unknown provenance (nil is compatible with either reading —
// releasing nil is a no-op).
func (s *summarizer) resultPlus(fd *ast.FuncDecl, sig *types.Signature, i int, plus map[*types.Var]bool) bool {
	some, veto := false, false
	classify := func(e ast.Expr) {
		e = ast.Unparen(e)
		if tv, ok := s.pass.TypesInfo.Types[e]; ok && tv.IsNil() {
			return
		}
		if call, ok := e.(*ast.CallExpr); ok {
			if s.summaryFor(calleeFunc(s.pass, call)).plusResult(0) {
				some = true
			} else {
				veto = true
			}
			return
		}
		if v := usedOrDefinedVar(s.pass, e); v != nil && plus[v] {
			some = true
			return
		}
		veto = true
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false // separate function, separate returns
		}
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		switch {
		case len(ret.Results) == 0:
			// Naked return: the named result either accumulated a +1
			// reference or it did not.
			if res := sig.Results().At(i); res.Name() != "" {
				if plus[res] {
					some = true
				} else {
					veto = true
				}
			}
		case len(ret.Results) == sig.Results().Len():
			classify(ret.Results[i])
		case len(ret.Results) == 1:
			// return f() forwarding a multi-result call.
			if call, ok := ast.Unparen(ret.Results[0]).(*ast.CallExpr); ok {
				if s.summaryFor(calleeFunc(s.pass, call)).plusResult(i) {
					some = true
				} else {
					veto = true
				}
			} else {
				veto = true
			}
		}
		return true
	})
	return some && !veto
}

// usedOrDefinedVar resolves an identifier expression to the non-blank
// variable it uses or defines, or nil.
func usedOrDefinedVar(pass *framework.Pass, e ast.Expr) *types.Var {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	obj := pass.TypesInfo.Defs[id]
	if obj == nil {
		obj = pass.TypesInfo.Uses[id]
	}
	v, _ := obj.(*types.Var)
	return v
}

func summariesEqual(a, b *Summary) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	if a == nil {
		return true
	}
	if len(a.Results) != len(b.Results) || len(a.Params) != len(b.Params) || a.NilTogether != b.NilTogether {
		return false
	}
	for i := range a.Results {
		if a.Results[i] != b.Results[i] {
			return false
		}
	}
	for i := range a.Params {
		if a.Params[i] != b.Params[i] {
			return false
		}
	}
	return true
}

func indexOf(path []ast.Node, n ast.Node) int {
	for i, p := range path {
		if p == n {
			return i
		}
	}
	return -1
}
