package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

// The dataflow analyzer is only as sound as the CFG under it, so the
// graph builder gets direct structural tests: block shapes, loop back
// edges, RPO, and the solver's no-aliasing contract.

// parseBody wraps src in a function and returns its parsed body.
func parseBody(t *testing.T, src string) *ast.BlockStmt {
	t.Helper()
	file := "package p\nfunc f(c bool, xs []int) {\n" + src + "\n}\n"
	f, err := parser.ParseFile(token.NewFileSet(), "cfg_test.go", file, 0)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return f.Decls[0].(*ast.FuncDecl).Body
}

// inCycle reports whether b lies on a cycle: a path of successor edges
// leads from b back to itself.
func inCycle(b *Block) bool {
	seen := map[*Block]bool{}
	var dfs func(*Block) bool
	dfs = func(x *Block) bool {
		for _, s := range x.Succs {
			if s == b {
				return true
			}
			if !seen[s] {
				seen[s] = true
				if dfs(s) {
					return true
				}
			}
		}
		return false
	}
	return dfs(b)
}

// reachableBlocks returns the blocks reachable from entry.
func reachableBlocks(c *CFG) map[*Block]bool {
	seen := map[*Block]bool{}
	var dfs func(*Block)
	dfs = func(b *Block) {
		if seen[b] {
			return
		}
		seen[b] = true
		for _, s := range b.Succs {
			dfs(s)
		}
	}
	dfs(c.Entry)
	return seen
}

func TestCFGStraightLine(t *testing.T) {
	cfg := BuildCFG(parseBody(t, "x := 1\nx++\n_ = x"))
	if len(cfg.Entry.Nodes) != 3 {
		t.Errorf("entry block has %d nodes, want 3", len(cfg.Entry.Nodes))
	}
	if !reachableBlocks(cfg)[cfg.Exit] {
		t.Error("exit not reachable from entry")
	}
	for _, b := range cfg.Blocks {
		if inCycle(b) {
			t.Errorf("block %d marked in-cycle in straight-line code", b.Index)
		}
	}
}

func TestCFGIfElseJoins(t *testing.T) {
	cfg := BuildCFG(parseBody(t, "x := 0\nif c {\nx = 1\n} else {\nx = 2\n}\n_ = x"))
	// The branch blocks must reconverge: some block has two predecessors.
	joined := false
	for _, b := range cfg.Blocks {
		if len(b.Preds) >= 2 {
			joined = true
		}
		if inCycle(b) {
			t.Errorf("block %d marked in-cycle in branch-only code", b.Index)
		}
	}
	if !joined {
		t.Error("if/else arms never join")
	}
}

func TestCFGForLoopCycle(t *testing.T) {
	cfg := BuildCFG(parseBody(t, "x := 0\nfor c {\nx++\n}\n_ = x"))
	var cyclic, acyclic int
	for b := range reachableBlocks(cfg) {
		if inCycle(b) {
			cyclic++
		} else {
			acyclic++
		}
	}
	if cyclic < 2 {
		t.Errorf("want loop head and body in-cycle, got %d cyclic blocks", cyclic)
	}
	if acyclic < 2 {
		t.Errorf("entry and after-loop code must stay out of the cycle, got %d acyclic blocks", acyclic)
	}
	if inCycle(cfg.Exit) {
		t.Error("exit block marked in-cycle")
	}
}

func TestCFGRangeHeader(t *testing.T) {
	cfg := BuildCFG(parseBody(t, "s := 0\nfor _, v := range xs {\ns += v\n}\n_ = s"))
	var head *Block
	for _, b := range cfg.Blocks {
		for _, n := range b.Nodes {
			if _, ok := n.(*RangeHeader); ok {
				head = b
			}
		}
	}
	if head == nil {
		t.Fatal("no RangeHeader node emitted for a range loop")
	}
	if !inCycle(head) {
		t.Error("range header block not marked in-cycle")
	}
	// The header is the back-edge target: one of its predecessors must be
	// a cyclic block (the body).
	backEdge := false
	for _, p := range head.Preds {
		if inCycle(p) {
			backEdge = true
		}
	}
	if !backEdge {
		t.Error("range header has no back edge from the loop body")
	}
}

func TestCFGBreakStopsCycle(t *testing.T) {
	cfg := BuildCFG(parseBody(t, "for {\nif c {\nbreak\n}\n}\n_ = c"))
	if !reachableBlocks(cfg)[cfg.Exit] {
		t.Error("break out of for{} must make the exit reachable")
	}
}

func TestRPOStartsAtEntryAndCoversReachable(t *testing.T) {
	cfg := BuildCFG(parseBody(t, "x := 0\nfor c {\nif x > 1 {\nx = 0\n}\nx++\n}\n_ = x"))
	rpo := cfg.RPO()
	if len(rpo) == 0 || rpo[0] != cfg.Entry {
		t.Fatal("RPO must begin with the entry block")
	}
	seen := map[*Block]bool{}
	for _, b := range rpo {
		if seen[b] {
			t.Errorf("block %d appears twice in RPO", b.Index)
		}
		seen[b] = true
	}
	for b := range reachableBlocks(cfg) {
		if !seen[b] {
			t.Errorf("reachable block %d missing from RPO", b.Index)
		}
	}
}

// TestForwardFlowDoesNotAliasStates pins the solver's cloning contract:
// transfer may mutate its argument, and the stored block-entry states must
// not change underneath it. (A regression here poisons every downstream
// report pass with post-states.)
func TestForwardFlowDoesNotAliasStates(t *testing.T) {
	cfg := BuildCFG(parseBody(t, "x := 1\n_ = x"))
	entry := map[string]int{}
	join := func(dst, src map[string]int) (map[string]int, bool) {
		if dst == nil {
			c := map[string]int{}
			for k, v := range src {
				c[k] = v
			}
			return c, true
		}
		changed := false
		for k, v := range src {
			if dst[k] < v {
				dst[k] = v
				changed = true
			}
		}
		return dst, changed
	}
	clone := func(m map[string]int) map[string]int {
		c := map[string]int{}
		for k, v := range m {
			c[k] = v
		}
		return c
	}
	transfer := func(b *Block, st map[string]int) map[string]int {
		st["visited"] += len(b.Nodes) // deliberately mutates its argument
		return st
	}
	states := forwardFlow(cfg, entry, join, clone, transfer)
	if got := states[cfg.Entry]["visited"]; got != 0 {
		t.Errorf("entry in-state mutated by transfer: visited=%d, want 0", got)
	}
	if got := states[cfg.Exit]["visited"]; got != 2 {
		t.Errorf("exit in-state = %d nodes, want 2", got)
	}
}

// TestForwardFlowLoopFixpoint checks that loop states converge: a counter
// capped by the transfer function must reach its cap at the loop head, not
// oscillate or stop early.
func TestForwardFlowLoopFixpoint(t *testing.T) {
	cfg := BuildCFG(parseBody(t, "x := 0\nfor c {\nx++\n}\n_ = x"))
	const cap = 50
	join := func(dst, src map[string]int) (map[string]int, bool) {
		if dst == nil {
			c := map[string]int{}
			for k, v := range src {
				c[k] = v
			}
			return c, true
		}
		changed := false
		for k, v := range src {
			if dst[k] < v {
				dst[k] = v
				changed = true
			}
		}
		return dst, changed
	}
	clone := func(m map[string]int) map[string]int {
		c := map[string]int{}
		for k, v := range m {
			c[k] = v
		}
		return c
	}
	transfer := func(b *Block, st map[string]int) map[string]int {
		if inCycle(b) && st["n"] < cap {
			st["n"]++
		}
		return st
	}
	states := forwardFlow(cfg, map[string]int{}, join, clone, transfer)
	if got := states[cfg.Exit]["n"]; got != cap {
		t.Errorf("loop fixpoint stopped at n=%d, want saturation at %d", got, cap)
	}
}
