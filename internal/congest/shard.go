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
// same inbox, counter, or cursor, and the only synchronization in a round is
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
// Only fault-free, unobserved runs get a pool: Config.check rejects
// Parallel on a run that needs the fault pipeline. A round in which a
// node committed a send violation is still delivered, but the run ends
// with it, so the deliveries are never read: runRound folds the shard
// counters in shard order up to the first shard that failed, whose worker
// stopped accounting at the offender, which is the sequential drain's
// partial accounting exactly.
type shardPool struct {
	spans  []*span // one per shard, spans[s] running the ids of ranges[s]
	ranges []Span  // SplitSpans' contiguous id ranges, ascending
	// Per-shard results of a round, each written only by its shard's
	// worker: how many members halted, and the first send violation its
	// accounting met.
	halts []int
	errs  []error

	round int
	// start carries each worker its round tokens: one channel per worker,
	// so no worker can take a second token of the same round.
	start  []chan struct{}
	staged sync.WaitGroup // the one in-round barrier: compute -> ingest
	wg     sync.WaitGroup // joins the workers of one round
}

// newShardPool splits the ids of x, Run's span over every node, into
// contiguous shards and starts one worker per shard over the execution's
// shared node state. Each shard span gets its own cursor, and the Envs of
// its members are pointed at it.
func newShardPool(x *span, shards int) *shardPool {
	ns := x.nodeSet
	ranges := SplitSpans(len(ns.nodes), shards)
	k := len(ranges)
	p := &shardPool{
		spans:  make([]*span, k),
		ranges: ranges,
		halts:  make([]int, k),
		errs:   make([]error, k),
		start:  make([]chan struct{}, k),
	}
	for s, r := range ranges {
		sx := &span{nodeSet: ns, fr: newFrontier(idRange(r.Lo, r.Hi)), stats: &Stats{}, cur: newCursor(x.cur.graph, x.cur.seed, x.cur.bitLimit)}
		p.spans[s] = sx
		p.start[s] = make(chan struct{})
		for id := r.Lo; id < r.Hi; id++ {
			sx.envs[id].c = &sx.cur // x's ids start at 0
		}
	}
	for w := 0; w < k; w++ {
		go p.worker(w)
	}
	return p
}

// runRound executes one round across the shards, blocks until it is
// complete, and folds the shard-local counters into st in shard order.
// It returns how many nodes halted and the round's first send violation,
// if any, after which the fold stops: shards are ascending id ranges, so
// that is exactly the sequential drain's partial accounting. Sums and
// maxes commute, so the fold order cannot otherwise leak into st.
func (p *shardPool) runRound(round int, st *Stats) (halts int, err error) {
	p.round = round
	p.staged.Add(len(p.spans))
	p.wg.Add(len(p.spans))
	for _, c := range p.start {
		c <- struct{}{}
	}
	p.wg.Wait()
	for _, h := range p.halts {
		halts += h
	}
	for s, x := range p.spans {
		st.Messages += x.stats.Messages
		st.Bits += x.stats.Bits
		st.MaxMessageBits = max(st.MaxMessageBits, x.stats.MaxMessageBits)
		st.Rejected += x.stats.Rejected
		st.Senders += x.stats.Senders
		*x.stats = Stats{}
		if p.errs[s] != nil {
			return halts, p.errs[s]
		}
	}
	return halts, nil
}

// stop terminates the worker goroutines. The pool must be idle (no round
// in flight).
func (p *shardPool) stop() {
	for _, c := range p.start {
		close(c)
	}
}

// worker is the per-shard round loop: everything it runs may only write
// state owned by shard w, ingest included. The multi-shard matrices under
// -race (make check, and CI's check and perf-smoke jobs) guard that: a
// write to another shard's state is a data race there.
func (p *shardPool) worker(w int) {
	s := p.spans[w]
	for range p.start[w] { // one token per round; exits when stop closes the channel
		p.halts[w] = s.compute(p.round)
		p.errs[w] = p.account(s)
		// The round's one barrier: publishes every shard's staged records
		// before any shard starts ingesting.
		p.staged.Done()
		p.staged.Wait()
		p.ingest(w)
		p.wg.Done()
	}
}

// account is the worker side of the drain: it accounts each of the
// shard's senders, in ascending id order, and stops at the first that
// recorded a send violation, returning it.
func (p *shardPool) account(s *span) error {
	for i := range s.fr.senders {
		if err := s.stats.account(s.graph, &s.fr.senders[i]); err != nil {
			return err
		}
	}
	return nil
}

// ingest is shard w's half of the deterministic merge: it reads the staged
// records of every shard's senders in place, in ascending sender id, and
// delivers the messages addressed to its own id range. A broadcast record
// is expanded only over the part of its sender's ascending-id row inside
// the range. Only shard-owned state is written, so ingest runs with no
// locks and no false sharing with other workers.
func (p *shardPool) ingest(w int) {
	s, r := p.spans[w], p.ranges[w]
	s.clearInboxes()
	for _, src := range p.spans {
		for i := range src.fr.senders {
			for _, rec := range src.fr.senders[i].out {
				if rec.To != broadcastTo {
					if r.Contains(int(rec.To)) {
						s.reserve(rec.To)
						s.deliver(rec)
					}
					continue
				}
				lo, hi := s.graph.rowOffsets(int(rec.From))
				row := s.graph.sorted[lo:hi]
				i, _ := slices.BinarySearch(row, int32(r.Lo))
				for _, v := range row[i:] {
					if int(v) >= r.Hi {
						break
					}
					s.reserve(v)
					s.deliver(Message{From: rec.From, To: v, Payload: rec.Payload})
				}
			}
		}
	}
}
