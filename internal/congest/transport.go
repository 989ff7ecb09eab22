package congest

import (
	"fmt"
	"slices"
	"sort"
	"sync"
)

// This file is the engine's transport seam: the distributed counterpart of
// the in-process runners in engine.go/shard.go. A Transport moves one
// round's framed per-edge payloads between shards that live in different
// goroutines or different processes; RunShard steps the engine's one
// round executor over its span, with the transport edge (exchange) after
// each merge. Two implementations exist:
// ChanNetwork (below) wires shards of a single process together with
// channels-free sync primitives and is the reference for the barrier
// semantics, and internal/transport/udp speaks real datagrams between
// processes with retry/timeout/backoff and graceful degradation. The
// in-process runners remain the fast path — Run with Config.Parallel never
// touches this seam — and stay byte-identical to the sequential engine
// (invariant I5).

// Span is a contiguous range of node ids [Lo, Hi) owned by one shard of a
// distributed run.
type Span struct {
	Lo, Hi int
}

// Contains reports whether node id falls in the span.
func (s Span) Contains(id int) bool { return id >= s.Lo && id < s.Hi }

// Len returns the number of nodes in the span.
func (s Span) Len() int { return s.Hi - s.Lo }

// SplitSpans partitions node ids 0..n-1 into k contiguous spans of size
// n/k±1 (earlier spans take the remainder): the shard layout of both a
// RunShard fleet and the in-process parallel runner. k is clamped to
// [1, n] for n > 0.
func SplitSpans(n, k int) []Span {
	if n <= 0 {
		return []Span{{0, 0}}
	}
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	spans := make([]Span, k)
	lo := 0
	for i := 0; i < k; i++ {
		size := n / k
		if i < n%k {
			size++
		}
		spans[i] = Span{Lo: lo, Hi: lo + size}
		lo += size
	}
	return spans
}

// spanOf returns the index of the span containing node id in spans, a
// contiguous ascending tiling of the ids (possibly with empty spans), or -1
// when no span contains it.
func spanOf(spans []Span, id int) int {
	i := sort.Search(len(spans), func(i int) bool { return spans[i].Hi > id })
	if i < len(spans) && spans[i].Contains(id) {
		return i
	}
	return -1
}

// RoundStart is what a Transport reports when it opens a round.
type RoundStart struct {
	// Done reports that the coordinator declared the run globally complete
	// after the previous round; the shard must stop without executing this
	// round.
	Done bool
}

// Transport moves one shard's round traffic in a distributed run. The
// engine drives it in a strict per-round cycle — Begin, Send, Gather — and
// never calls it concurrently; implementations handle their own wire
// concurrency underneath.
//
// Degradation contract: Gather must return rather than hang when a peer
// stops answering (retry budgets, barrier timeouts). Messages that never
// arrived are simply absent — the protocol layer above is certified against
// message loss — so a peer declared dead needs no engine action: its nodes
// fall silent like crashed ones, and the host's Assemble masks the lost
// span (a nil fragment) when it combines the surviving shards' results.
//
// Readmission contract: a transport MAY later restore a down peer (the UDP
// backend's REJOIN/ADMIT protocol does, at a round barrier). A readmitted
// peer's silence window behaves exactly like a burst of message loss: the
// engine takes no special action, traffic simply resumes. Transports must
// only readmit peers whose state is consistent with everything they sent
// before going down (checkpoint replay guarantees this for
// core.ResumeShard) — a peer restored to an older state would retract
// announcements the protocol has already acted on.
type Transport interface {
	// Begin blocks until the coordinator opens the round.
	Begin(round int) (RoundStart, error)
	// Send ships the local nodes' round messages addressed to remote nodes.
	// Payload slices are only valid until the next engine round; the
	// transport copies what it keeps.
	Send(round int, msgs []Message) error
	// Gather blocks until the round's inbound remote traffic has arrived
	// (or the barrier degraded), reporting whether every local node has
	// halted. The returned messages become next-round inbox entries. The
	// returned slice and its payloads stay valid until the next Gather,
	// so a transport may reuse their storage then; RunShard consumes them
	// in the next round's compute, before that call.
	Gather(round int, allHalted bool) ([]Message, error)
}

// RunShard executes the nodes of span sp on g against a Transport: the
// distributed analogue of Run. nodes must have length g.N(); only entries
// inside sp are initialized and driven (remote entries may be nil), and
// results are read out of them by the caller exactly as with Run. Stats
// cover the local shard only; the coordinator aggregates across shards.
//
// The execution of each node is byte-identical to the same node under the
// in-process runners whenever the transport delivers every message: node
// seeds derive from (cfg.Seed, id) exactly as in Run, and every inbox is
// delivered sorted by ascending sender id. Lost remote messages degrade the
// run exactly like injected drop faults. The config passes Run's check
// first; the in-process options Faults, Reliable, Observer and Parallel
// are then rejected rather than ignored.
func RunShard(g *Graph, nodes []Node, sp Span, cfg Config, tr Transport) (Stats, error) {
	maxRounds, err := cfg.check(g, nodes)
	if err != nil {
		return Stats{}, err
	}
	n := g.N()
	if sp.Lo < 0 || sp.Hi > n || sp.Lo > sp.Hi {
		return Stats{}, fmt.Errorf("congest: shard span [%d,%d) out of range [0,%d)", sp.Lo, sp.Hi, n)
	}
	if cfg.Faults.active() || cfg.Reliable.enabled() {
		return Stats{}, fmt.Errorf("congest: RunShard does not simulate faults; chaos on a transport run is injected at the packet layer")
	}
	if cfg.Observer != nil || cfg.Parallel {
		return Stats{}, fmt.Errorf("congest: RunShard runs its span on one goroutine and observes nothing; Observer and Parallel are in-process Run options")
	}
	// Shards of an in-process deployment share the Graph, so the lazy
	// freeze inside Finalize would race; the caller finalizes once before
	// launching shards.
	if !g.frozen {
		return Stats{}, fmt.Errorf("congest: RunShard requires a finalized graph; call Finalize before launching shards")
	}

	// One span over the local ids: a sleeping node stays live — the shard
	// keeps reporting allHalted=false for it — but costs nothing until a
	// timer or an arrival (local or remote) wakes it. Messages to remote
	// nodes collect in the remote slice the transport ships.
	x, err := newExecutor(g, nodes, sp.Lo, sp.Hi, &cfg)
	if err != nil {
		return Stats{}, err
	}
	x.fr = newFrontier(idRange(sp.Lo, sp.Hi))
	x.tr = tr
	return x.run(maxRounds)
}

// exchange is the transport edge of a round, after the merge: it ships the
// span's remote messages, gathers the round's arrivals and delivers them
// into the next round's inboxes.
func (x *executor) exchange(round int) (done bool, err error) {
	err = x.tr.Send(round, x.remote)
	x.remote = x.remote[:0]
	if err != nil {
		return true, fmt.Errorf("congest: send round %d: %w", round, err)
	}
	in, err := x.tr.Gather(round, x.live == 0)
	if err != nil {
		return true, fmt.Errorf("congest: gather round %d: %w", round, err)
	}
	for _, msg := range in {
		if !x.owns(int(msg.To)) {
			return true, fmt.Errorf("congest: transport delivered message for remote node %d to shard [%d,%d)", msg.To, x.lo, x.lo+len(x.envs))
		}
		x.reserve(msg.To)
		x.deliver(msg)
	}
	if len(in) > 0 {
		// Local deliveries are already sorted by sender id; remote
		// arrivals land behind them in transport order. Re-establish
		// the born-sorted inbox invariant per recipient. The order is
		// total: a sender stages at most one message per recipient per
		// round, so sender ids within an inbox are unique.
		for _, id := range x.fr.recips {
			slices.SortFunc(x.inboxes[id], func(a, b Message) int { return int(a.From) - int(b.From) })
		}
	}
	return false, nil
}

// ChanNetwork is the in-process Transport implementation: k shard endpoints
// of one process joined by a shared round barrier. It exists as the
// reference implementation of the Transport contract — the UDP backend must
// be observably equivalent to it on a lossless network — and as the test
// double that lets the distributed round loop run without sockets. It has
// no failure modes of its own: every message is delivered and no peer is
// ever declared down. A shard whose RunShard fails must Abort the network,
// or its peers wait at the barrier for it forever.
type ChanNetwork struct {
	mu    sync.Mutex
	cond  *sync.Cond
	spans []Span
	// open is the highest round the barrier has released; done is set when
	// every shard reported allHalted for the same round.
	open int
	done bool
	// arrived counts Gather calls for the open round; halted how many of
	// them reported a fully-halted shard.
	arrived int
	halted  int
	// buf[shard] accumulates the open round's inbound messages per
	// destination shard; swap holds the previous round's, being drained.
	buf  [][]Message
	swap [][]Message
	// err, once set by Abort, fails every pending and later call.
	err error
}

// NewChanNetwork builds an in-process network whose shard i owns spans[i].
// Spans must tile 0..n-1 contiguously in order.
func NewChanNetwork(n int, spans []Span) (*ChanNetwork, error) {
	lo := 0
	for i, s := range spans {
		if s.Lo != lo || s.Hi < s.Lo {
			return nil, fmt.Errorf("congest: span %d is [%d,%d), want contiguous from %d", i, s.Lo, s.Hi, lo)
		}
		lo = s.Hi
	}
	if lo != n {
		return nil, fmt.Errorf("congest: spans cover [0,%d), want [0,%d)", lo, n)
	}
	c := &ChanNetwork{
		spans: spans,
		buf:   make([][]Message, len(spans)),
		swap:  make([][]Message, len(spans)),
	}
	c.cond = sync.NewCond(&c.mu)
	return c, nil
}

// Shard returns shard i's Transport endpoint.
func (c *ChanNetwork) Shard(i int) Transport { return &chanEndpoint{net: c, shard: i} }

// Abort fails the run: every Begin, Send and Gather, blocked or later,
// returns an error wrapping err. The first call wins.
func (c *ChanNetwork) Abort(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err == nil {
		c.err = fmt.Errorf("congest: network aborted: %w", err)
		c.cond.Broadcast()
	}
}

type chanEndpoint struct {
	net   *ChanNetwork
	shard int
}

func (e *chanEndpoint) Begin(round int) (RoundStart, error) {
	c := e.net
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.open < round && !c.done && c.err == nil {
		c.cond.Wait()
	}
	if c.err != nil {
		return RoundStart{}, c.err
	}
	return RoundStart{Done: c.done && c.open < round}, nil
}

func (e *chanEndpoint) Send(round int, msgs []Message) error {
	c := e.net
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return c.err
	}
	if round != c.open {
		return fmt.Errorf("congest: shard %d sent for round %d, open round is %d", e.shard, round, c.open)
	}
	for _, m := range msgs {
		dst := spanOf(c.spans, int(m.To))
		if dst < 0 {
			return fmt.Errorf("congest: message to unowned node %d", m.To)
		}
		// Payloads live in the sending span's round buffer, which is
		// recycled after the barrier; the network owns its copies.
		c.buf[dst] = append(c.buf[dst], Message{From: m.From, To: m.To, Payload: append([]byte(nil), m.Payload...)})
	}
	return nil
}

func (e *chanEndpoint) Gather(round int, allHalted bool) ([]Message, error) {
	c := e.net
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return nil, c.err
	}
	if round != c.open {
		return nil, fmt.Errorf("congest: shard %d gathered round %d, open round is %d", e.shard, round, c.open)
	}
	c.arrived++
	if allHalted {
		c.halted++
	}
	if c.arrived == len(c.spans) {
		// Barrier complete: the open round's buffers become the drain set
		// and the next round opens (or the run ends — the round counter
		// then stays put so Begin(round+1) reports Done).
		c.buf, c.swap = c.swap, c.buf
		if c.halted == len(c.spans) {
			c.done = true
		} else {
			c.open = round + 1
		}
		c.arrived, c.halted = 0, 0
		c.cond.Broadcast()
	} else {
		for c.open == round && !c.done && c.err == nil {
			c.cond.Wait()
		}
		if c.err != nil {
			return nil, c.err
		}
	}
	out := c.swap[e.shard]
	c.swap[e.shard] = nil
	return out, nil
}
