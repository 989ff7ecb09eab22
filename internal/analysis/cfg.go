package analysis

import (
	"go/ast"
	"go/token"
)

// This file is the bottom of the dataflow layer: a basic-block control-flow
// graph over go/ast function bodies. dettaint runs worklist dataflow over
// it instead of the purely syntactic single-pass walks of poolonly and
// hotmap, so facts
// survive joins, loops, and reassignment the way values actually flow at
// run time.
//
// The CFG is deliberately modest: it models Go's structured control flow
// (if/for/range/switch/type-switch/select, labeled break/continue, goto,
// return, fallthrough) and flattens every block into a sequence of
// straight-line nodes. Conditions and range headers appear as explicit
// nodes in the block that evaluates them, so transfer functions see every
// expression exactly once. Function literals are *not* inlined — analyses
// treat them conservatively at their use sites.

// Block is one basic block: a maximal straight-line node sequence with a
// single entry and a single set of successor edges.
type Block struct {
	Index int
	// Nodes holds the block's flat statements and evaluated expressions in
	// execution order. Entries are plain statements (AssignStmt, ExprStmt,
	// IncDecStmt, DeclStmt, ReturnStmt, SendStmt, DeferStmt, GoStmt),
	// bare condition/tag expressions, or *RangeHeader markers. None of
	// them nests another statement (except inside function literals), so a
	// shallow walk that skips FuncLit bodies visits every expression once.
	Nodes []ast.Node
	Succs []*Block
	Preds []*Block
}

// RangeHeader marks the implicit per-iteration assignment of a range
// statement's key/value variables. It sits in the loop-header block (the
// target of the back edge), so dataflow transfer functions re-bind the
// iteration variables on every trip around the loop.
type RangeHeader struct {
	Range *ast.RangeStmt
}

func (r *RangeHeader) Pos() token.Pos { return r.Range.Pos() }
func (r *RangeHeader) End() token.Pos { return r.Range.X.End() }

// CFG is the control-flow graph of one function body.
type CFG struct {
	Blocks []*Block
	Entry  *Block
	// Exit is the single synthetic exit block; every return and the
	// natural end of the body flow into it. It holds no nodes.
	Exit *Block
}

// BuildCFG constructs the basic-block graph of a function body.
func BuildCFG(body *ast.BlockStmt) *CFG {
	b := &cfgBuilder{cfg: &CFG{}, labels: map[string]*labelInfo{}}
	b.cfg.Entry = b.newBlock()
	b.cfg.Exit = b.newBlock()
	b.cur = b.cfg.Entry
	b.stmtList(body.List)
	b.edge(b.cur, b.cfg.Exit)
	return b.cfg
}

// RPO returns the blocks reachable from Entry in reverse postorder — the
// canonical iteration order for a forward dataflow worklist.
func (c *CFG) RPO() []*Block {
	seen := make([]bool, len(c.Blocks))
	var post []*Block
	var dfs func(*Block)
	dfs = func(b *Block) {
		seen[b.Index] = true
		for _, s := range b.Succs {
			if !seen[s.Index] {
				dfs(s)
			}
		}
		post = append(post, b)
	}
	dfs(c.Entry)
	for i, j := 0, len(post)-1; i < j; i, j = i+1, j-1 {
		post[i], post[j] = post[j], post[i]
	}
	return post
}

type labelInfo struct {
	block          *Block // the labeled statement's block (goto target)
	brk, cont      *Block // break/continue targets when the label names a loop
	isLoop, placed bool
}

type cfgBuilder struct {
	cfg *CFG
	cur *Block
	// breaks/continues are the innermost targets for unlabeled branch
	// statements; switch/select push onto breaks only.
	breaks, continues []*Block
	labels            map[string]*labelInfo
	// pendingLabel carries a label down to the loop/switch statement it
	// names, so `break L`/`continue L` resolve to that construct's targets.
	pendingLabel *labelInfo
}

func (b *cfgBuilder) newBlock() *Block {
	blk := &Block{Index: len(b.cfg.Blocks)}
	b.cfg.Blocks = append(b.cfg.Blocks, blk)
	return blk
}

func (b *cfgBuilder) edge(from, to *Block) {
	from.Succs = append(from.Succs, to)
	to.Preds = append(to.Preds, from)
}

// startBlock finishes cur with an edge into a fresh block and makes that
// block current.
func (b *cfgBuilder) startBlock() *Block {
	nb := b.newBlock()
	b.edge(b.cur, nb)
	b.cur = nb
	return nb
}

func (b *cfgBuilder) emit(n ast.Node) {
	if n != nil {
		b.cur.Nodes = append(b.cur.Nodes, n)
	}
}

func (b *cfgBuilder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

func (b *cfgBuilder) stmt(s ast.Stmt) {
	// Any statement other than a labeled loop/switch consumes a pending
	// label as a plain goto anchor.
	label := b.pendingLabel
	b.pendingLabel = nil

	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)

	case *ast.LabeledStmt:
		li := b.labelFor(s.Label.Name)
		if !li.placed {
			li.placed = true
			b.edge(b.cur, li.block)
			b.cur = li.block
		}
		b.pendingLabel = li
		b.stmt(s.Stmt)
		b.pendingLabel = nil

	case *ast.ReturnStmt:
		b.emit(s)
		b.edge(b.cur, b.cfg.Exit)
		b.cur = b.newBlock() // unreachable continuation

	case *ast.BranchStmt:
		switch s.Tok {
		case token.BREAK:
			target := b.innermost(b.breaks)
			if s.Label != nil {
				target = b.labelFor(s.Label.Name).brk
			}
			b.jump(target)
		case token.CONTINUE:
			target := b.innermost(b.continues)
			if s.Label != nil {
				target = b.labelFor(s.Label.Name).cont
			}
			b.jump(target)
		case token.GOTO:
			b.jump(b.labelFor(s.Label.Name).block)
		}
		// Fallthrough is handled by the switch builder.

	case *ast.IfStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		b.emit(s.Cond)
		condBlk := b.cur
		after := b.newBlock()
		thenBlk := b.newBlock()
		b.edge(condBlk, thenBlk)
		b.cur = thenBlk
		b.stmtList(s.Body.List)
		b.edge(b.cur, after)
		if s.Else != nil {
			elseBlk := b.newBlock()
			b.edge(condBlk, elseBlk)
			b.cur = elseBlk
			b.stmt(s.Else)
			b.edge(b.cur, after)
		} else {
			b.edge(condBlk, after)
		}
		b.cur = after

	case *ast.ForStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		head := b.startBlock()
		if s.Cond != nil {
			b.emit(s.Cond)
		}
		after := b.newBlock()
		if s.Cond != nil {
			b.edge(head, after)
		}
		contTarget := head
		var postBlk *Block
		if s.Post != nil {
			postBlk = b.newBlock()
			postBlk.Nodes = append(postBlk.Nodes, s.Post)
			b.edge(postBlk, head)
			contTarget = postBlk
		}
		b.setLoopLabel(label, after, contTarget)
		b.pushLoop(after, contTarget)
		body := b.newBlock()
		b.edge(head, body)
		b.cur = body
		b.stmtList(s.Body.List)
		b.edge(b.cur, contTarget)
		b.popLoop()
		b.cur = after

	case *ast.RangeStmt:
		b.emit(s.X)
		head := b.startBlock()
		head.Nodes = append(head.Nodes, &RangeHeader{Range: s})
		after := b.newBlock()
		b.edge(head, after)
		b.setLoopLabel(label, after, head)
		b.pushLoop(after, head)
		body := b.newBlock()
		b.edge(head, body)
		b.cur = body
		b.stmtList(s.Body.List)
		b.edge(b.cur, head)
		b.popLoop()
		b.cur = after

	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		b.switchLike(s, label)

	default:
		// Flat statements: assignments, expression statements, sends,
		// declarations, defers, go statements, empties.
		if _, ok := s.(*ast.EmptyStmt); !ok {
			b.emit(s)
		}
	}
}

// switchLike builds switch, type-switch, and select statements. Case
// dispatch is modeled conservatively: every clause is a successor of the
// head block (no case-expression ordering), which is sound for the forward
// analyses built on top.
func (b *cfgBuilder) switchLike(s ast.Stmt, label *labelInfo) {
	var clauses []ast.Stmt
	switch s := s.(type) {
	case *ast.SwitchStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		if s.Tag != nil {
			b.emit(s.Tag)
		}
		clauses = s.Body.List
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		b.stmt(s.Assign)
		clauses = s.Body.List
	case *ast.SelectStmt:
		clauses = s.Body.List
	}
	head := b.cur
	after := b.newBlock()
	b.setLoopLabel(label, after, nil)
	b.breaks = append(b.breaks, after)

	hasDefault := false
	var bodies []*Block
	var bodyLists [][]ast.Stmt
	for _, cl := range clauses {
		blk := b.newBlock()
		b.edge(head, blk)
		switch cl := cl.(type) {
		case *ast.CaseClause:
			if cl.List == nil {
				hasDefault = true
			}
			for _, e := range cl.List {
				blk.Nodes = append(blk.Nodes, e)
			}
			bodies = append(bodies, blk)
			bodyLists = append(bodyLists, cl.Body)
		case *ast.CommClause:
			if cl.Comm == nil {
				hasDefault = true
			} else {
				blk.Nodes = append(blk.Nodes, cl.Comm)
			}
			bodies = append(bodies, blk)
			bodyLists = append(bodyLists, cl.Body)
		}
	}
	if !hasDefault {
		b.edge(head, after)
	}
	for i, blk := range bodies {
		b.cur = blk
		// Strip a trailing fallthrough; it redirects the clause exit edge
		// into the next clause's block.
		list := bodyLists[i]
		fall := false
		if n := len(list); n > 0 {
			if br, ok := list[n-1].(*ast.BranchStmt); ok && br.Tok == token.FALLTHROUGH {
				fall = true
				list = list[:n-1]
			}
		}
		b.stmtList(list)
		if fall && i+1 < len(bodies) {
			b.edge(b.cur, bodies[i+1])
		} else {
			b.edge(b.cur, after)
		}
	}
	b.breaks = b.breaks[:len(b.breaks)-1]
	b.cur = after
}

func (b *cfgBuilder) labelFor(name string) *labelInfo {
	li, ok := b.labels[name]
	if !ok {
		li = &labelInfo{block: b.newBlock()}
		b.labels[name] = li
	}
	return li
}

// setLoopLabel wires a pending label's break/continue targets once the
// labeled construct turns out to be a loop or switch.
func (b *cfgBuilder) setLoopLabel(li *labelInfo, brk, cont *Block) {
	if li == nil {
		return
	}
	li.isLoop = cont != nil
	li.brk = brk
	li.cont = cont
}

func (b *cfgBuilder) pushLoop(brk, cont *Block) {
	b.breaks = append(b.breaks, brk)
	b.continues = append(b.continues, cont)
}

func (b *cfgBuilder) popLoop() {
	b.breaks = b.breaks[:len(b.breaks)-1]
	b.continues = b.continues[:len(b.continues)-1]
}

func (b *cfgBuilder) innermost(stack []*Block) *Block {
	if len(stack) == 0 {
		return b.cfg.Exit // malformed code; fail safe toward the exit
	}
	return stack[len(stack)-1]
}

// jump terminates the current block with an edge to target and opens an
// unreachable continuation block.
func (b *cfgBuilder) jump(target *Block) {
	if target == nil {
		target = b.cfg.Exit
	}
	b.edge(b.cur, target)
	b.cur = b.newBlock()
}

// walkShallow visits every expression of one flat CFG node without
// descending into function literal bodies (which execute elsewhere) and
// without re-entering nested statements (flat nodes have none). Transfer
// and report passes use it so each expression is inspected exactly once.
func walkShallow(n ast.Node, visit func(ast.Node) bool) {
	if n == nil {
		return
	}
	if rh, ok := n.(*RangeHeader); ok {
		// Only the key/value idents belong to the header; X was evaluated
		// in the predecessor block.
		if rh.Range.Key != nil {
			walkShallow(rh.Range.Key, visit)
		}
		if rh.Range.Value != nil {
			walkShallow(rh.Range.Value, visit)
		}
		return
	}
	ast.Inspect(n, func(x ast.Node) bool {
		if _, ok := x.(*ast.FuncLit); ok {
			return false
		}
		return visit(x)
	})
}
