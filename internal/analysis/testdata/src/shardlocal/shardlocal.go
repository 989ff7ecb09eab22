// Package shardlocal seeds violations (and legitimate shard-owned writes)
// for the shardlocal analyzer's golden test. The pool mirrors the engine's
// shardPool shape: shared id-indexed slices plus per-shard private state.
package shardlocal

type message struct{ To int }

type state struct {
	members []int
	outbox  [][]message
	count   int
}

type pool struct {
	halted  []bool
	inboxes [][]message
	shards  []*state
	spans   []*span
	round   int
}

// nodes mirrors the engine's nodeSet: every span holds a copy of these
// slice headers, so the shard's own handle reaches shared arrays.
//
//flvet:shared every span indexes the same backing arrays by node id
type nodes struct {
	done []bool
	envs []env
}

type env struct{ gen int }

// span mirrors the engine's span: shared node arrays plus the shard's own
// active list and outbox.
type span struct {
	nodes
	active []int
	outbox []message
}

// worker is the compute-phase entry: everything reachable from here may
// only write shard-w-owned state.
//
//flvet:shardworker
func (p *pool) worker(w int) {
	s := p.shards[w] // indexing a pool field with the own index: local handle
	for _, id := range s.members {
		p.halted[id] = false // member ids index shard-owned ranges: allowed
	}
	s.count++                 // write through the local handle: allowed
	s.outbox[0] = s.outbox[0][:0] // local handle: any index is fine
	scratch := make([]int, 4)
	scratch[3] = w // plain local state: allowed

	other := w + 1
	p.halted[other] = true    // want `write to p\.halted indexed by other, which is not provably in this worker's shard`
	p.shards[other].count = 0 // want `write through p\.shards\[other\], which may reference another shard's state`
	p.round = 1               // want `write to shared pool state p\.round`
	for _, t := range p.shards {
		t.count++ // want `write through t, which may reference another shard's state`
	}

	p.helper(w)     // own index crosses the call boundary
	p.sneaky(other) // non-local index crosses the call boundary

	q := p.shards[other]
	q.reset() // foreign handle crosses the call boundary

	p.merge(w)
	p.spans[w].compute(other)

	//flvet:shardlocal scheduling beacon, torn reads tolerated by design
	p.round = 2 // escaped by the directive above
}

// helper inherits the own-index fact from its call site, so its pool write
// is provably local.
func (p *pool) helper(w int) {
	p.halted[w] = true // allowed: w is the caller's own shard index
}

// sneaky receives an index with no locality proof.
func (p *pool) sneaky(i int) {
	p.inboxes[i] = nil // want `write to p\.inboxes indexed by i, which is not provably in this worker's shard`
}

// reset writes through its receiver; flagged only because its one call
// site passes another shard's state.
func (s *state) reset() {
	s.count = 0 // want `write through s, which may reference another shard's state`
}

// compute is the span walk: shared arrays reached through the shard's own
// handle still need a node id of the shard.
func (x *span) compute(other int) {
	for _, id := range x.active {
		x.done[id] = true   // ranged from the shard's own list: allowed
		x.envs[id].gen++    // allowed
		x.done[other] = true // want `write to x\.done indexed by other, which is not provably in this worker's shard`
		x.envs[id+1].gen = 0 // want `write through x\.envs\[id \+ 1\], which may reference another shard's state`
	}
	x.outbox = x.outbox[:0] // the span's own fields: allowed
	x.active[0] = other     // allowed
}

// merge is the blessed cross-shard phase.
//
//flvet:merge drains every shard's outbox after the barrier
func (p *pool) merge(w int) {
	for _, s := range p.shards {
		for _, m := range s.outbox[w] {
			p.inboxes[m.To] = append(p.inboxes[m.To], m)
		}
	}
}
