// Package cfg builds per-function control-flow graphs from go/ast syntax,
// with dominator computation, a generic worklist dataflow solver, and a
// bounded path-sensitive interpreter — the flow foundation the lfcheck
// reference-lifetime analyzers stand on.
//
// The paper's SafeRead/Release discipline (Figures 17 and 18) is inherently
// path-dependent: which counted references are live depends on which branch
// a function took. Per-statement AST walking cannot see that; a CFG makes
// every path explicit. The builder covers the full statement language —
// if/else, for (all three clauses), range, switch with fallthrough, type
// switch, select, goto and labels, labeled break/continue, defer, and
// explicit panic — and routes every way out of a function through a single
// synthetic Exit block, with edges classified as normal returns, the
// implicit return at the end of the body, or panics. Analyzers use the
// classification to treat "this path returns" differently from "this path
// only panics".
//
// A graph is pure syntax plus edges: blocks hold the statements and
// condition expressions evaluated on a path, in execution order, and edges
// carry the branch condition (with its polarity) so dataflow clients can
// refine facts at branch points ("on this edge, q == nil held").
// Unreachable code is pruned at build time, so every block an analyzer
// sees lies on some path from the entry.
package cfg

import (
	"go/ast"
	"go/token"
	"go/types"
)

// EdgeKind classifies how control moves along an edge.
type EdgeKind uint8

const (
	// Flow is an unconditional transfer: sequential fallthrough between
	// blocks, a jump (goto, break, continue), or one nondeterministic arm
	// of a switch or select.
	Flow EdgeKind = iota

	// True is taken when the source block's final condition evaluated true.
	True

	// False is taken when the source block's final condition evaluated
	// false.
	False

	// Return enters the Exit block from an explicit return statement.
	Return

	// ImplicitReturn enters the Exit block by falling off the end of the
	// function body.
	ImplicitReturn

	// Panic enters the Exit block from an explicit call to the panic
	// builtin: the path terminates without returning.
	Panic
)

func (k EdgeKind) String() string {
	switch k {
	case Flow:
		return "flow"
	case True:
		return "true"
	case False:
		return "false"
	case Return:
		return "return"
	case ImplicitReturn:
		return "implicit-return"
	case Panic:
		return "panic"
	}
	return "?"
}

// Edge is one control transfer between blocks.
type Edge struct {
	From, To *Block
	Kind     EdgeKind

	// Cond is the governing condition for True/False edges: the expression
	// the source block evaluated last. Dataflow clients refine facts with
	// it (a True edge for `q == nil` proves q nil on the target side).
	Cond ast.Expr

	// Ret is the terminating statement of Return edges, for diagnostics.
	Ret *ast.ReturnStmt
}

// Block is a maximal straight-line run of evaluated nodes. Nodes holds
// statements and the expressions evaluated for control decisions
// (conditions, switch tags, case lists, range operands), in execution
// order; an interpreter applies them sequentially and then fans out along
// Succs.
type Block struct {
	Index int
	Label string // a human-readable role ("entry", "for.body", ...) for dumps
	Nodes []ast.Node
	Succs []*Edge
	Preds []*Edge
}

// Graph is one function's control-flow graph. Blocks[0] is the entry; Exit
// is the synthetic final block every return, implicit return, and panic
// edge targets. Exit holds no nodes and has no successors.
type Graph struct {
	Blocks []*Block
	Entry  *Block
	Exit   *Block
}

// New builds the CFG of one function body. info supplies type information
// for recognizing the panic builtin; it may be nil (a bare name match is
// used then), which test fixtures rely on.
func New(body *ast.BlockStmt, info *types.Info) *Graph {
	b := &builder{
		info:   info,
		labels: make(map[string]*labelInfo),
	}
	b.exit = b.newBlock("exit")
	entry := b.newBlock("entry")
	b.cur = entry
	b.stmtList(body.List)
	b.edgeTo(b.exit, ImplicitReturn, nil, nil)
	return b.finish(entry)
}

// A Cache memoizes the CFGs of one package, shared by every analyzer the
// driver runs over it (analyzers run sequentially per package, so no
// locking is needed). Graphs are keyed by body identity — the driver
// already content-hashes package sources for its result cache, so within
// one load a body node identifies its source text.
type Cache struct {
	info *types.Info
	m    map[*ast.BlockStmt]*Graph
}

// NewCache returns an empty CFG cache for a package with the given type
// information.
func NewCache(info *types.Info) *Cache {
	return &Cache{info: info, m: make(map[*ast.BlockStmt]*Graph)}
}

// Get returns the memoized CFG for body, building it on first use.
func (c *Cache) Get(body *ast.BlockStmt) *Graph {
	if g, ok := c.m[body]; ok {
		return g
	}
	g := New(body, c.info)
	c.m[body] = g
	return g
}

// labelInfo tracks one label: the block a goto to it jumps to, and, once
// its statement turns out to be a loop/switch/select, the break/continue
// targets a labeled branch uses.
type labelInfo struct {
	target *Block // the labeled statement's entry, for goto
	brk    *Block
	cont   *Block
}

// breakable is one enclosing construct break (and for loops, continue) can
// leave.
type breakable struct {
	label  string // "" when the construct is unlabeled
	brk    *Block
	cont   *Block // nil for switch/select
	isLoop bool
}

type builder struct {
	info   *types.Info
	blocks []*Block
	cur    *Block
	exit   *Block
	stack  []breakable
	labels map[string]*labelInfo

	// pendingLabel is the label of the LabeledStmt just entered, consumed
	// by the next loop/switch/select so labeled break/continue resolve.
	pendingLabel string

	// switchBodies, during switch construction, maps each case body's
	// entry so fallthrough can jump to the next one.
	switchBodies [][]*Block
}

func (b *builder) newBlock(label string) *Block {
	blk := &Block{Index: len(b.blocks), Label: label}
	b.blocks = append(b.blocks, blk)
	return blk
}

// edgeTo links the current block to dst; a nil current block (after a
// terminator) makes it a no-op.
func (b *builder) edgeTo(dst *Block, kind EdgeKind, cond ast.Expr, ret *ast.ReturnStmt) {
	if b.cur == nil {
		return
	}
	e := &Edge{From: b.cur, To: dst, Kind: kind, Cond: cond, Ret: ret}
	b.cur.Succs = append(b.cur.Succs, e)
	dst.Preds = append(dst.Preds, e)
}

// edgeFrom links an arbitrary source block to dst.
func (b *builder) edgeFrom(src, dst *Block, kind EdgeKind, cond ast.Expr) {
	e := &Edge{From: src, To: dst, Kind: kind, Cond: cond}
	src.Succs = append(src.Succs, e)
	dst.Preds = append(dst.Preds, e)
}

func (b *builder) add(n ast.Node) {
	if b.cur == nil {
		// Unreachable statement (after return/panic/jump): give it a block
		// so syntax is not lost, knowing the prune pass will drop it if
		// nothing jumps here.
		b.cur = b.newBlock("unreachable")
	}
	b.cur.Nodes = append(b.cur.Nodes, n)
}

// ensure makes sure there is a current block, for statements that begin
// with control flow (e.g. a loop as the first statement after a return —
// unreachable, but goto labels inside it may not be).
func (b *builder) ensure() {
	if b.cur == nil {
		b.cur = b.newBlock("unreachable")
	}
}

func (b *builder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

func (b *builder) takeLabel() string {
	l := b.pendingLabel
	b.pendingLabel = ""
	return l
}

func (b *builder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)

	case *ast.EmptyStmt:
		// no effect

	case *ast.LabeledStmt:
		li := b.labelFor(s.Label.Name)
		b.ensure()
		b.edgeTo(li.target, Flow, nil, nil)
		b.cur = li.target
		b.pendingLabel = s.Label.Name
		b.stmt(s.Stmt)
		b.pendingLabel = ""

	case *ast.ExprStmt:
		b.add(s)
		if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok && b.isPanic(call) {
			b.edgeTo(b.exit, Panic, nil, nil)
			b.cur = nil
		}

	case *ast.ReturnStmt:
		b.add(s)
		if b.cur != nil {
			e := &Edge{From: b.cur, To: b.exit, Kind: Return, Ret: s}
			b.cur.Succs = append(b.cur.Succs, e)
			b.exit.Preds = append(b.exit.Preds, e)
		}
		b.cur = nil

	case *ast.BranchStmt:
		b.branch(s)

	case *ast.IfStmt:
		b.takeLabel()
		if s.Init != nil {
			b.stmt(s.Init)
		}
		b.ensure()
		b.add(s.Cond)
		condBlock := b.cur
		then := b.newBlock("if.then")
		var els *Block
		if s.Else != nil {
			els = b.newBlock("if.else")
		}
		after := b.newBlock("if.after")
		b.edgeFrom(condBlock, then, True, s.Cond)
		b.cur = then
		b.stmtList(s.Body.List)
		b.edgeTo(after, Flow, nil, nil)
		if els != nil {
			b.edgeFrom(condBlock, els, False, s.Cond)
			b.cur = els
			b.stmt(s.Else)
			b.edgeTo(after, Flow, nil, nil)
		} else {
			b.edgeFrom(condBlock, after, False, s.Cond)
		}
		b.cur = after

	case *ast.ForStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.stmt(s.Init)
		}
		b.ensure()
		head := b.newBlock("for.head")
		body := b.newBlock("for.body")
		after := b.newBlock("for.after")
		b.edgeTo(head, Flow, nil, nil)
		b.cur = head
		if s.Cond != nil {
			b.add(s.Cond)
			b.edgeTo(body, True, s.Cond, nil)
			b.edgeFrom(b.cur, after, False, s.Cond)
		} else {
			b.edgeTo(body, Flow, nil, nil)
		}
		cont := head
		var post *Block
		if s.Post != nil {
			post = b.newBlock("for.post")
			cont = post
		}
		b.pushBreakable(label, after, cont, true)
		b.cur = body
		b.stmtList(s.Body.List)
		b.edgeTo(cont, Flow, nil, nil)
		b.popBreakable()
		if post != nil {
			b.cur = post
			b.stmt(s.Post)
			b.edgeTo(head, Flow, nil, nil)
		}
		b.cur = after

	case *ast.RangeStmt:
		label := b.takeLabel()
		b.ensure()
		// The range operand is evaluated once, before iteration begins.
		b.add(s.X)
		head := b.newBlock("range.head")
		body := b.newBlock("range.body")
		after := b.newBlock("range.after")
		b.edgeTo(head, Flow, nil, nil)
		// Each arrival at the head either starts another iteration
		// (binding the key/value variables — the RangeStmt node stands for
		// that binding) or exhausts the range.
		head.Nodes = append(head.Nodes, s)
		b.edgeFrom(head, body, Flow, nil)
		b.edgeFrom(head, after, Flow, nil)
		b.pushBreakable(label, after, head, true)
		b.cur = body
		b.stmtList(s.Body.List)
		b.edgeTo(head, Flow, nil, nil)
		b.popBreakable()
		b.cur = after

	case *ast.SwitchStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.stmt(s.Init)
		}
		b.ensure()
		if s.Tag != nil {
			b.add(s.Tag)
		}
		b.switchBlocks(label, s.Body, func(cc *ast.CaseClause, blk *Block) {
			// The case expressions are evaluated while matching.
			for _, e := range cc.List {
				blk.Nodes = append(blk.Nodes, e)
			}
		}, true)

	case *ast.TypeSwitchStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.stmt(s.Init)
		}
		b.ensure()
		if s.Assign != nil {
			b.add(s.Assign)
		}
		// Case lists are types, not evaluated expressions; fallthrough is
		// not permitted in a type switch.
		b.switchBlocks(label, s.Body, nil, false)

	case *ast.SelectStmt:
		label := b.takeLabel()
		b.ensure()
		head := b.cur
		after := b.newBlock("select.after")
		b.pushBreakable(label, after, nil, false)
		taken := false
		for _, clause := range s.Body.List {
			cc, ok := clause.(*ast.CommClause)
			if !ok {
				continue
			}
			taken = true
			arm := b.newBlock("select.arm")
			b.edgeFrom(head, arm, Flow, nil)
			b.cur = arm
			if cc.Comm != nil {
				b.stmt(cc.Comm)
			}
			b.stmtList(cc.Body)
			b.edgeTo(after, Flow, nil, nil)
		}
		b.popBreakable()
		if !taken {
			// select{} blocks forever: no path continues.
			b.cur = nil
			return
		}
		b.cur = after

	case *ast.DeclStmt, *ast.AssignStmt, *ast.SendStmt, *ast.IncDecStmt,
		*ast.GoStmt, *ast.DeferStmt:
		b.add(s)

	default:
		// Anything unanticipated flows through as an opaque node.
		b.add(s)
	}
}

// switchBlocks lays out the arms of a (type) switch: the current block fans
// out nondeterministically to each case, plus directly to the after block
// when no default clause exists. evalCase, when non-nil, seeds each arm
// with the expressions matching evaluates.
func (b *builder) switchBlocks(label string, body *ast.BlockStmt, evalCase func(*ast.CaseClause, *Block), allowFallthrough bool) {
	head := b.cur
	after := b.newBlock("switch.after")
	b.pushBreakable(label, after, nil, false)

	var clauses []*ast.CaseClause
	for _, c := range body.List {
		if cc, ok := c.(*ast.CaseClause); ok {
			clauses = append(clauses, cc)
		}
	}
	arms := make([]*Block, len(clauses))
	hasDefault := false
	for i, cc := range clauses {
		arms[i] = b.newBlock("case")
		if cc.List == nil {
			arms[i].Label = "case.default"
			hasDefault = true
		}
		b.edgeFrom(head, arms[i], Flow, nil)
		if evalCase != nil {
			evalCase(cc, arms[i])
		}
	}
	if !hasDefault {
		b.edgeFrom(head, after, Flow, nil)
	}
	if allowFallthrough {
		b.switchBodies = append(b.switchBodies, arms)
	}
	for i, cc := range clauses {
		b.cur = arms[i]
		if allowFallthrough {
			// Mark which arm is current so a fallthrough statement finds
			// its successor; encoded by rotating the tracked slice.
			b.switchBodies[len(b.switchBodies)-1] = arms[i+1:]
		}
		b.stmtList(cc.Body)
		b.edgeTo(after, Flow, nil, nil)
	}
	if allowFallthrough {
		b.switchBodies = b.switchBodies[:len(b.switchBodies)-1]
	}
	b.popBreakable()
	b.cur = after
}

func (b *builder) branch(s *ast.BranchStmt) {
	switch s.Tok {
	case token.BREAK:
		if t := b.findBreakable(labelName(s), false); t != nil {
			b.edgeTo(t.brk, Flow, nil, nil)
		}
		b.cur = nil
	case token.CONTINUE:
		if t := b.findBreakable(labelName(s), true); t != nil {
			b.edgeTo(t.cont, Flow, nil, nil)
		}
		b.cur = nil
	case token.GOTO:
		if s.Label != nil {
			b.edgeTo(b.labelFor(s.Label.Name).target, Flow, nil, nil)
		}
		b.cur = nil
	case token.FALLTHROUGH:
		if n := len(b.switchBodies); n > 0 && len(b.switchBodies[n-1]) > 0 {
			b.edgeTo(b.switchBodies[n-1][0], Flow, nil, nil)
		}
		b.cur = nil
	}
}

func labelName(s *ast.BranchStmt) string {
	if s.Label != nil {
		return s.Label.Name
	}
	return ""
}

func (b *builder) pushBreakable(label string, brk, cont *Block, isLoop bool) {
	b.stack = append(b.stack, breakable{label: label, brk: brk, cont: cont, isLoop: isLoop})
	if label != "" {
		li := b.labelFor(label)
		li.brk = brk
		li.cont = cont
	}
}

func (b *builder) popBreakable() {
	b.stack = b.stack[:len(b.stack)-1]
}

// findBreakable resolves the target of a break (or, with needLoop,
// continue): the innermost matching construct, or the labeled one.
func (b *builder) findBreakable(label string, needLoop bool) *breakable {
	for i := len(b.stack) - 1; i >= 0; i-- {
		t := &b.stack[i]
		if label != "" {
			if t.label == label {
				return t
			}
			continue
		}
		if !needLoop || t.isLoop {
			return t
		}
	}
	return nil
}

func (b *builder) labelFor(name string) *labelInfo {
	if li, ok := b.labels[name]; ok {
		return li
	}
	li := &labelInfo{target: b.newBlock("label." + name)}
	b.labels[name] = li
	return li
}

// isPanic reports whether call invokes the panic builtin.
func (b *builder) isPanic(call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "panic" {
		return false
	}
	if b.info == nil {
		return true
	}
	_, isBuiltin := b.info.Uses[id].(*types.Builtin)
	return isBuiltin
}

// finish prunes blocks unreachable from the entry, renumbers the survivors
// (entry first, exit last), and filters dead edges out of predecessor
// lists.
func (b *builder) finish(entry *Block) *Graph {
	reach := make(map[*Block]bool)
	var visit func(*Block)
	visit = func(blk *Block) {
		if reach[blk] {
			return
		}
		reach[blk] = true
		for _, e := range blk.Succs {
			visit(e.To)
		}
	}
	visit(entry)

	g := &Graph{Entry: entry, Exit: b.exit}
	for _, blk := range b.blocks {
		if blk == b.exit {
			continue // placed last below
		}
		if !reach[blk] {
			continue
		}
		blk.Index = len(g.Blocks)
		g.Blocks = append(g.Blocks, blk)
	}
	b.exit.Index = len(g.Blocks)
	g.Blocks = append(g.Blocks, b.exit)
	for _, blk := range g.Blocks {
		var preds []*Edge
		for _, e := range blk.Preds {
			if reach[e.From] {
				preds = append(preds, e)
			}
		}
		blk.Preds = preds
	}
	return g
}
