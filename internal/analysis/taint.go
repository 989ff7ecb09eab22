package analysis

import (
	"go/ast"
	"go/types"
)

// This file holds the middle of the dataflow layer: a generic forward
// worklist solver over the CFG, plus the variable-fact state shared by the
// taint-style analyses (dettaint's nondeterminism taint).

// forwardFlow runs a forward dataflow over cfg to fixpoint and returns the
// stable entry state of every reachable block.
//
//   - entry is the fact at the function entry.
//   - join merges a predecessor's out-fact into an accumulated in-fact and
//     reports whether the accumulated fact changed; dst may be nil (bottom),
//     in which case join must return a copy of src.
//   - clone copies a fact; the solver hands transfer a clone of the stored
//     in-state so transfer may mutate its argument freely.
//   - transfer computes a block's out-fact from its (cloned) in-fact.
func forwardFlow[F any](
	cfg *CFG,
	entry F,
	join func(dst F, src F) (F, bool),
	clone func(F) F,
	transfer func(*Block, F) F,
) map[*Block]F {
	rpo := cfg.RPO()
	order := make(map[*Block]int, len(rpo))
	for i, b := range rpo {
		order[b] = i
	}
	in := make(map[*Block]F, len(rpo))
	var zero F
	in[cfg.Entry] = entry

	inQueue := make(map[*Block]bool, len(rpo))
	queue := append([]*Block(nil), rpo...)
	for _, b := range rpo {
		inQueue[b] = true
	}
	for len(queue) > 0 {
		// Pop the queued block earliest in RPO; near-linear on reducible
		// graphs and correct on any graph.
		best := 0
		for i := 1; i < len(queue); i++ {
			if order[queue[i]] < order[queue[best]] {
				best = i
			}
		}
		b := queue[best]
		queue = append(queue[:best], queue[best+1:]...)
		inQueue[b] = false

		st, ok := in[b]
		if !ok {
			continue // unreachable or not yet fed by any predecessor
		}
		out := transfer(b, clone(st))
		for _, s := range b.Succs {
			cur, seen := in[s]
			if !seen {
				cur = zero
			}
			merged, changed := join(cur, out)
			if !seen || changed {
				in[s] = merged
				if !inQueue[s] {
					inQueue[s] = true
					queue = append(queue, s)
				}
			}
		}
	}
	return in
}

// varFacts is the shared map-shaped fact: one small value per tracked
// *types.Var. The zero map is bottom.
type varFacts[T comparable] map[*types.Var]T

func (f varFacts[T]) clone() varFacts[T] {
	c := make(varFacts[T], len(f))
	for k, v := range f { //flvet:ordered per-key copy into a map, order-free
		c[k] = v
	}
	return c
}

// lhsVar resolves an assignment target to the *types.Var it binds, for
// plain identifier targets. Selector/index targets return nil — the
// analyses model those separately.
func lhsVar(info *types.Info, e ast.Expr) *types.Var {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	if v, ok := info.Defs[id].(*types.Var); ok {
		return v
	}
	v, _ := info.Uses[id].(*types.Var)
	return v
}

// rangeVars returns the key and value loop variables of a range statement
// (nil where absent or blank).
func rangeVars(info *types.Info, r *ast.RangeStmt) (key, value *types.Var) {
	if r.Key != nil {
		key = lhsVar(info, r.Key)
	}
	if r.Value != nil {
		value = lhsVar(info, r.Value)
	}
	return key, value
}
