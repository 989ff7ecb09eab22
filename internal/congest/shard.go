package congest

import (
	"math"
	"slices"
	"sync"
)

// shardPool runs a parallel execution's spans on a fixed set of long-lived
// worker goroutines, one per topology shard. Nodes are statically
// partitioned into topology-aware shards (see partitionShards) and each
// worker owns everything its span touches — the member nodes it runs and
// their sleep state, the per-destination-shard outboxes it stages into, the
// inboxes it ingests, and its own Stats counters. Delivery is therefore
// contention-free: no two workers ever write the same inbox, counter, or
// env, and the only synchronization in a round is one internal barrier
// between the staging and ingest phases (plus the start/join handshake
// with the caller).
//
// Determinism (invariant I5): a worker stages its senders in ascending node
// id, so each outbox stream is sorted by sender id; sender sets are
// disjoint across shards, so the ingest phase's streams-by-ascending-
// sender merge reproduces exactly the delivery order of the sequential
// runner — every inbox comes out sorted by sender id with at most one
// message per sender, byte-identical for every shard count. Stats are
// sums and maxes of per-message quantities, so folding shard-local
// counters at round end is order-independent.
//
// Fault schedules, the reliable shim, and observers need the fault-stream
// draws (and the observer's view) to happen in global sender order, so
// those runs keep the caller-side merge: workers run only the compute walk
// and the engine drains the merged sender list, exactly as the sequential
// runner would. So does a round in which a node committed a send
// violation: staging leaves every env intact, so the caller's merge
// reproduces the sequential runner's abort and its partial accounting.
type shardPool struct {
	spans   []*span // one per shard
	shardOf []int32 // node id -> owning shard
	// serialMerge marks runs whose merge must stay on the caller goroutine
	// (fault delivery or an observer is installed).
	serialMerge bool
	// Per-shard results of the compute walk, each written only by its
	// shard's worker: how many members halted, and whether a member
	// recorded a send violation.
	halts  []int
	failed []bool
	// heads[w][src] is shard w's ingest cursor into spans[src].outbox[w].
	heads [][]int

	round int
	// start carries each worker its round tokens: one channel per worker,
	// so no worker can take a second token of the same round.
	start  []chan struct{}
	staged sync.WaitGroup // the one in-round barrier: staging -> ingest
	wg     sync.WaitGroup // joins the workers of one round
}

// newShardPool partitions the graph and starts one worker per shard over
// the execution's shared node state.
func newShardPool(g *Graph, ns nodeSet, shards int, serialMerge bool) *shardPool {
	parts := partitionShards(g, shards)
	k, n := len(parts), len(ns.nodes)
	p := &shardPool{
		spans:       make([]*span, k),
		shardOf:     make([]int32, n),
		serialMerge: serialMerge,
		halts:       make([]int, k),
		failed:      make([]bool, k),
		heads:       make([][]int, k),
		start:       make([]chan struct{}, k),
	}
	for s, members := range parts {
		x := &span{nodeSet: ns, fr: newFrontier(members), stats: &Stats{}, outbox: make([][]Message, k)}
		p.spans[s] = x
		p.heads[s] = make([]int, k)
		p.start[s] = make(chan struct{})
		for _, id := range members {
			p.shardOf[id] = int32(s)
			x.env(id).buf = &x.buf
		}
	}
	for w := 0; w < k; w++ {
		go p.worker(w)
	}
	return p
}

// callerFrontier returns the merge-side frontier for runs whose delivery
// happens on the caller goroutine: it owns the recipient list driving the
// next round's inbox clears and hands each wake to the frontier of the
// node's shard.
func (p *shardPool) callerFrontier() *frontier {
	return &frontier{onWake: func(id int32) { p.spans[p.shardOf[id]].fr.wake(id) }}
}

// mergedSenders collects the round's sender lists of every shard into one
// ascending id list for the caller-side merge. Shards own disjoint, but
// not necessarily contiguous, id ranges, so the lists are sorted together.
func (p *shardPool) mergedSenders(buf []int32) []int32 {
	for _, s := range p.spans {
		buf = append(buf, s.fr.senders...)
	}
	slices.Sort(buf)
	return buf
}

// runRound executes one round across the shards, blocks until it is
// complete, and returns how many nodes halted. merged reports that the
// round was fully merged shard-locally (the caller only folds counters via
// collect); it is false when the caller must run the merge itself — every
// round of a serialMerge pool, or a round in which some node committed a
// send violation (staging left every env intact, so the caller's merge
// reproduces the sequential abort exactly).
func (p *shardPool) runRound(round int) (halts int, merged bool) {
	p.round = round
	if !p.serialMerge {
		p.staged.Add(len(p.spans))
	}
	p.wg.Add(len(p.spans))
	for _, c := range p.start {
		c <- struct{}{}
	}
	p.wg.Wait()
	for _, h := range p.halts {
		halts += h
	}
	return halts, !p.serialMerge && !slices.Contains(p.failed, true)
}

// collect folds the shard-local counters of one shard-merged round into
// the run's Stats. Sums and maxes commute, so the fold order cannot leak
// into the result.
func (p *shardPool) collect(st *Stats) {
	for _, s := range p.spans {
		st.Messages += s.stats.Messages
		st.Bits += s.stats.Bits
		if s.stats.MaxMessageBits > st.MaxMessageBits {
			st.MaxMessageBits = s.stats.MaxMessageBits
		}
		st.Rejected += s.stats.Rejected
		st.Senders += s.stats.Senders
		*s.stats = Stats{}
	}
}

// stop terminates the worker goroutines. The pool must be idle (no round
// in flight).
func (p *shardPool) stop() {
	for _, c := range p.start {
		close(c)
	}
}

// worker is the per-shard round loop: everything reachable from here
// outside the //flvet:merge phase may only write state owned by shard w —
// flvet's shardlocal analyzer enforces that statically.
//
//flvet:shardworker
func (p *shardPool) worker(w int) {
	s := p.spans[w]
	for range p.start[w] { // one token per round; exits when stop closes the channel
		p.halts[w] = s.compute(p.round)
		if !p.serialMerge {
			p.failed[w] = !p.stage(s)
			// The round's one barrier: publishes every shard's outbox
			// streams (and failed flag) before any shard starts ingesting.
			p.staged.Done()
			p.staged.Wait()
			if !slices.Contains(p.failed, true) {
				p.ingest(w)
			}
		}
		p.wg.Done()
	}
}

// stage is the worker side of the drain: it accounts each of the shard's
// senders, in ascending id order, and appends its messages, broadcast
// records expanded, to the outbox of the recipient's shard. It reports
// false when a sender recorded a send violation, which leaves the round to
// the caller's merge.
func (p *shardPool) stage(s *span) bool {
	for d := range s.outbox {
		s.outbox[d] = s.outbox[d][:0]
	}
	for _, id := range s.fr.senders {
		env := s.env(id)
		if s.stats.account(env) != nil {
			return false
		}
		for i := range env.out {
			msgs := env.out[i : i+1]
			if env.out[i].To == broadcastTo {
				msgs = s.expand(env.out[i])
			}
			for _, msg := range msgs {
				d := p.shardOf[msg.To]
				s.outbox[d] = append(s.outbox[d], msg)
			}
		}
	}
	return true
}

// ingest is the per-destination-shard half of the deterministic merge:
// shard w drains the w-th outbox stream of every shard, merging by
// ascending sender id, and delivers into its own members' inboxes. Only
// shard-owned state is written, so ingest runs with no locks and no
// false sharing with other workers.
//
//flvet:merge reads every shard's outbox stream after the staged barrier published it; writes only shard-w-owned inboxes, inbox chunks, frontier and cursors
func (p *shardPool) ingest(w int) {
	s, heads := p.spans[w], p.heads[w]
	s.clearInboxes()
	clear(heads)
	// Streams are sender-sorted and sender sets are disjoint across
	// shards, so taking messages from the stream with the smallest head
	// sender reproduces the sequential runner's ascending-sender delivery
	// order exactly; every inbox comes out born-sorted with no per-inbox
	// sort. No sender appears in two streams, so that stream keeps the
	// lead for every message whose sender is below the other streams'
	// smallest head sender, and the whole run is delivered at once.
	for {
		best, bestFrom, limit := -1, 0, math.MaxInt
		for src, sp := range p.spans {
			q, h := sp.outbox[w], heads[src]
			if h == len(q) {
				continue
			}
			if from := q[h].From; best < 0 || from < bestFrom {
				if best >= 0 {
					limit = bestFrom
				}
				best, bestFrom = src, from
			} else {
				limit = min(limit, from)
			}
		}
		if best < 0 {
			return
		}
		q, h := p.spans[best].outbox[w], heads[best]
		for ; h < len(q) && q[h].From < limit; h++ {
			s.reserve(q[h].To)
			s.deliver(q[h])
		}
		heads[best] = h
	}
}

// partitionShards statically splits the graph's nodes into at most k
// balanced shards by greedy edge-cut minimization: each shard is seeded at
// the lowest unassigned node id and grown by repeatedly claiming the
// unassigned node with the most neighbours already inside the growing
// shard (ties to the lowest id). Claiming lowest ids first makes the
// partition hug the graph's labelling, so structured topologies (circulant
// rings, bipartite blocks, grid-ish instances) come out as near-contiguous
// id ranges — the contiguous relabeling that keeps each shard's member
// walk a forward sweep over the engine's id-indexed arrays. The result is
// a pure function of the adjacency: same graph, same shards, every run.
func partitionShards(g *Graph, k int) [][]int32 {
	n := g.N()
	if k > n {
		k = n
	}
	if k <= 1 {
		return [][]int32{idRange(0, n)}
	}
	parts := make([][]int32, k)
	assigned := make([]int, n)
	for i := range assigned {
		assigned[i] = -1
	}
	gain := make([]int, n) // neighbours already inside the growing shard
	var frontier gainHeap
	var touched []int
	next := 0 // lowest node id not yet assigned
	for s := 0; s < k; s++ {
		target := n / k
		if s < n%k {
			target++
		}
		frontier = frontier[:0]
		members := make([]int32, 0, target)
		for len(members) < target {
			v := -1
			// Lazy invalidation: entries whose gain is out of date (the
			// node gained more neighbours since the push, or was claimed)
			// are discarded; the live maximum is always present because
			// every gain increment pushes a fresh entry.
			for len(frontier) > 0 {
				top := frontier[0]
				frontier.pop()
				if assigned[top.id] < 0 && top.gain == gain[top.id] {
					v = top.id
					break
				}
			}
			if v < 0 {
				// Empty frontier (fresh shard or exhausted component):
				// seed at the lowest unassigned id.
				for assigned[next] >= 0 {
					next++
				}
				v = next
			}
			assigned[v] = s
			members = append(members, int32(v))
			for _, u := range g.Neighbors(v) {
				if assigned[u] < 0 {
					gain[u]++
					touched = append(touched, u)
					frontier.push(gainEntry{gain: gain[u], id: u})
				}
			}
		}
		slices.Sort(members)
		parts[s] = members
		for _, u := range touched {
			gain[u] = 0
		}
		touched = touched[:0]
	}
	return parts
}

// gainEntry orders the partition frontier: highest gain first, lowest id
// on ties, which makes the greedy growth deterministic.
type gainEntry struct{ gain, id int }

// gainHeap is a hand-rolled binary max-heap of gainEntry (stdlib
// container/heap would force an interface box per push on this hot setup
// path).
type gainHeap []gainEntry

func (h gainHeap) less(a, b gainEntry) bool {
	if a.gain != b.gain {
		return a.gain > b.gain
	}
	return a.id < b.id
}

func (h *gainHeap) push(e gainEntry) {
	*h = append(*h, e)
	q := *h
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(q[i], q[parent]) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
}

// pop removes the root; the caller has already read it from (*h)[0].
func (h *gainHeap) pop() {
	q := *h
	last := len(q) - 1
	q[0] = q[last]
	q = q[:last]
	*h = q
	i := 0
	for {
		l, r, m := 2*i+1, 2*i+2, i
		if l < last && q.less(q[l], q[m]) {
			m = l
		}
		if r < last && q.less(q[r], q[m]) {
			m = r
		}
		if m == i {
			break
		}
		q[i], q[m] = q[m], q[i]
		i = m
	}
}
