package congest

import (
	"slices"
	"sync"
)

// shardPool runs a parallel execution's spans on a fixed set of long-lived
// worker goroutines, one per shard. Shard s runs the contiguous id range
// SplitSpans(n, k)[s], the same layout as a RunShard fleet, and its worker
// owns everything its span touches — the member nodes it runs and their
// sleep state, the inboxes it ingests into, and its own Stats counters.
// Delivery is therefore contention-free: no two workers ever write the
// same inbox, counter, or env, and the only synchronization in a round is
// one internal barrier between the compute and ingest phases (plus the
// start/join handshake with the caller).
//
// Determinism (invariant I5): in the ingest phase every worker reads the
// staged records of every shard's senders, in shard order and within a
// shard in ascending id order. Shards are ascending disjoint id ranges, so
// that is ascending sender order over the whole graph, and each worker's
// deliveries are exactly the sequential runner's restricted to its own
// recipients: every inbox comes out sorted by sender id with at most one
// message per sender, byte-identical for every shard count. Stats are sums
// and maxes of per-message quantities, so folding shard-local counters at
// round end is order-independent.
//
// Fault schedules, the reliable shim, and observers need the fault-stream
// draws (and the observer's view) to happen in global sender order, so
// those runs keep the caller-side merge: workers run only the compute walk
// and the engine drains the merged sender list, exactly as the sequential
// runner would. So does a round in which a node committed a send
// violation: ingest leaves every env intact, so the caller's merge
// reproduces the sequential runner's abort and its partial accounting.
type shardPool struct {
	spans  []*span // one per shard, spans[s] running the ids of ranges[s]
	ranges []Span  // SplitSpans' contiguous id ranges, ascending
	// serialMerge marks runs whose merge must stay on the caller goroutine
	// (fault delivery or an observer is installed).
	serialMerge bool
	// Per-shard results of the compute phase, each written only by its
	// shard's worker: how many members halted, and whether a member
	// recorded a send violation.
	halts  []int
	failed []bool

	round int
	// start carries each worker its round tokens: one channel per worker,
	// so no worker can take a second token of the same round.
	start  []chan struct{}
	staged sync.WaitGroup // the one in-round barrier: compute -> ingest
	wg     sync.WaitGroup // joins the workers of one round
}

// newShardPool splits the ids into contiguous shards and starts one worker
// per shard over the execution's shared node state.
func newShardPool(ns nodeSet, shards int, serialMerge bool) *shardPool {
	ranges := SplitSpans(len(ns.nodes), shards)
	k := len(ranges)
	p := &shardPool{
		spans:       make([]*span, k),
		ranges:      ranges,
		serialMerge: serialMerge,
		halts:       make([]int, k),
		failed:      make([]bool, k),
		start:       make([]chan struct{}, k),
	}
	for s, r := range ranges {
		x := &span{nodeSet: ns, fr: newFrontier(idRange(r.Lo, r.Hi)), stats: &Stats{}}
		p.spans[s] = x
		p.start[s] = make(chan struct{})
		for id := r.Lo; id < r.Hi; id++ {
			x.env(int32(id)).buf = &x.buf
		}
	}
	for w := 0; w < k; w++ {
		go p.worker(w)
	}
	return p
}

// frontierOf returns the frontier of the shard that runs node id.
func (p *shardPool) frontierOf(id int) *frontier {
	return p.spans[spanOf(p.ranges, id)].fr
}

// callerFrontier returns the merge-side frontier for runs whose delivery
// happens on the caller goroutine: it owns the recipient list driving the
// next round's inbox clears and hands each wake to the frontier of the
// node's shard.
func (p *shardPool) callerFrontier() *frontier {
	return &frontier{onWake: func(id int32) { p.frontierOf(int(id)).wake(id) }}
}

// mergedSenders collects the round's sender lists of every shard into one
// ascending id list for the caller-side merge: the shards are ascending
// disjoint id ranges, so concatenating them in shard order is enough.
func (p *shardPool) mergedSenders(buf []int32) []int32 {
	for _, s := range p.spans {
		buf = append(buf, s.fr.senders...)
	}
	return buf
}

// runRound executes one round across the shards, blocks until it is
// complete, and returns how many nodes halted. merged reports that the
// round was fully merged shard-locally (the caller only folds counters via
// collect); it is false when the caller must run the merge itself — every
// round of a serialMerge pool, or a round in which some node committed a
// send violation (ingest left every env intact, so the caller's merge
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
			p.failed[w] = !p.account(s)
			// The round's one barrier: publishes every shard's staged
			// records (and failed flag) before any shard starts ingesting.
			p.staged.Done()
			p.staged.Wait()
			if !slices.Contains(p.failed, true) {
				p.ingest(w)
			}
		}
		p.wg.Done()
	}
}

// account is the worker side of the drain: it accounts each of the
// shard's senders, in ascending id order. It reports false when a sender
// recorded a send violation, which leaves the round to the caller's merge.
func (p *shardPool) account(s *span) bool {
	for _, id := range s.fr.senders {
		if s.stats.account(s.env(id)) != nil {
			return false
		}
	}
	return true
}

// ingest is shard w's half of the deterministic merge: it reads the staged
// records of every shard's senders in place, in ascending sender id, and
// delivers the messages addressed to its own id range. A broadcast record
// is expanded only over the part of its sender's ascending-id row inside
// the range. Only shard-owned state is written, so ingest runs with no
// locks and no false sharing with other workers.
//
//flvet:merge reads every shard's staged records after the staged barrier published them; writes only shard-w-owned inboxes, inbox chunks and frontier
func (p *shardPool) ingest(w int) {
	s, r := p.spans[w], p.ranges[w]
	s.clearInboxes()
	for _, src := range p.spans {
		for _, id := range src.fr.senders {
			for _, rec := range s.env(id).out {
				if rec.To != broadcastTo {
					if r.Contains(rec.To) {
						s.reserve(rec.To)
						s.deliver(rec)
					}
					continue
				}
				lo, hi := s.graph.rowOffsets(rec.From)
				row := s.graph.sorted[lo:hi]
				i, _ := slices.BinarySearch(row, int32(r.Lo))
				for _, v := range row[i:] {
					if int(v) >= r.Hi {
						break
					}
					s.reserve(int(v))
					s.deliver(Message{From: rec.From, To: int(v), Payload: rec.Payload})
				}
			}
		}
	}
}
