package congest

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
)

// Config controls one engine run.
type Config struct {
	// BitLimit is the maximum payload size per message in bits; 0 means
	// unlimited (the LOCAL model).
	BitLimit int
	// Seed derives every node's private random stream; the same seed yields
	// a byte-identical execution in both runners.
	Seed int64
	// MaxRounds aborts runaway protocols. 0 means DefaultMaxRounds; the
	// runners reject a budget above maxRoundBudget.
	MaxRounds int
	// Parallel selects the sharded runner: node ids are split into the
	// contiguous ranges of SplitSpans, each owned by one persistent worker
	// goroutine started once per Run and reused every round.
	// Execution is byte-identical to the sequential runner for every shard
	// count (invariant I5), so a run that needs the fault pipeline — Faults,
	// Reliable or an Observer — takes the sequential runner instead.
	Parallel bool
	// Shards is the parallel runner's shard count, one worker goroutine per
	// shard; 0 means GOMAXPROCS.
	Shards int
	// Observer, when non-nil, is invoked after every round with the round
	// number and the messages delivered in that round (sequential runner
	// order). The slice is reused between rounds and is only valid for the
	// duration of the call. Used by the tracing tool; nil in production
	// runs.
	Observer func(round int, delivered []Message)
	// Faults injects message drops and node crashes; the zero value is a
	// fault-free run. Run validates the configuration and rejects
	// out-of-range probabilities, node ids, and round windows.
	Faults Faults
	// Reliable layers the per-link ack/retransmit shim under every
	// Send/Broadcast; the zero value sends unprotected.
	Reliable Reliable
}

// DefaultMaxRounds is the round budget when Config.MaxRounds is zero.
const DefaultMaxRounds = 1 << 20

// maxRoundBudget is the largest round budget a run accepts. A node's send
// generation (Env.gen) starts at 1 and grows by one per round it runs, so
// a budget of at most 2^32-2 rounds keeps it a nonzero uint32 that no
// unwritten stamp can equal.
const maxRoundBudget = math.MaxUint32 - 1

// check is the config check both runners share: one node per vertex, an
// in-range fault schedule, a non-negative retry budget and a round budget
// within maxRoundBudget. It returns the round budget. RunShard rejects
// faults and the reliable shim outright, but only after this check, so a
// config one runner refuses as malformed the other refuses as well.
func (cfg *Config) check(g *Graph, nodes []Node) (int, error) {
	if len(nodes) != g.N() {
		return 0, fmt.Errorf("congest: %d nodes for graph of %d vertices", len(nodes), g.N())
	}
	if err := cfg.Faults.validate(len(nodes), nodes); err != nil {
		return 0, err
	}
	if cfg.Reliable.RetryBudget < 0 {
		return 0, fmt.Errorf("congest: RetryBudget %d is negative", cfg.Reliable.RetryBudget)
	}
	if int64(cfg.MaxRounds) > maxRoundBudget {
		return 0, fmt.Errorf("congest: MaxRounds %d exceeds the budget limit %d", cfg.MaxRounds, int64(maxRoundBudget))
	}
	if cfg.MaxRounds == 0 {
		return DefaultMaxRounds, nil
	}
	return cfg.MaxRounds, nil
}

// ErrRoundLimit is returned when a protocol does not halt within the round
// budget.
var ErrRoundLimit = errors.New("congest: round limit exceeded")

// Stats reports what one run cost in the model's own currency. On error
// returns (round limit, send violation) the counters — including Rounds —
// reflect the rounds actually executed before the abort.
type Stats struct {
	Rounds         int   // rounds executed (until global halt or abort)
	Messages       int64 // total protocol messages sent
	Bits           int64 // total protocol payload bits sent
	MaxMessageBits int   // largest single payload observed
	Dropped        int64 // wire transmissions lost to injected faults
	Crashed        int   // nodes halted by injected crashes
	Recovered      int   // crashed nodes restarted by the recovery schedule
	Duplicated     int64 // extra copies delivered by duplication faults
	Delayed        int64 // transmissions deferred by reordering faults
	// Link-layer traffic of the reliable-delivery shim, accounted apart
	// from the protocol's own Messages/Bits.
	Retransmits    int64 // frame retransmission attempts
	RetransmitBits int64 // payload bits spent on retransmissions
	Acks           int64 // acknowledgements transmitted
	AckBits        int64 // bits spent on acknowledgements
	// Adversarial traffic, also accounted apart from the protocol's own
	// Messages/Bits so message counts stay comparable across fault
	// schedules.
	Corrupted int64 // wire transmissions mutated by corruption faults
	Forged    int64 // byzantine rewrites and injections put on the wire
	Rejected  int64 // frames discarded as malformed, by the shim's link-layer framing check or by fail-closed protocol decoders (Env.Reject)
	LinkDowns int64 // reliable-shim frames abandoned with the retry budget exhausted
	// Activity accounting of the frontier scheduler. A run of the same
	// nodes kept awake has the same values, so the dormancy comparisons
	// cover them.
	LiveNodeRounds int64 // sum over executed rounds of the not-yet-halted node count
	Senders        int64 // node-rounds in which a node staged at least one message
	FinalLive      int   // nodes not yet halted when the run returned
}

// Run executes nodes on g until every node has halted, returning model-level
// statistics. len(nodes) must equal g.N(). Nodes are the caller's own
// values; after Run returns the caller reads results directly out of them.
func Run(g *Graph, nodes []Node, cfg Config) (Stats, error) {
	maxRounds, err := cfg.check(g, nodes)
	if err != nil {
		return Stats{}, err
	}

	g.Finalize()
	n := len(nodes)
	var stats Stats
	// x is the span over every node: it runs every round of a sequential
	// run; a parallel run's shard spans share its node state and schedule
	// its nodes, so x then has no frontier.
	x := &span{stats: &stats}
	x.nodeSet = newNodeSet(g, nodes, 0, n, n, cfg, &x.buf)

	// Fault randomness lives on its own stream so that a Faults{} run is
	// byte-identical to a fault-free run with the same seed. The stream is
	// created whenever any fault feature is active — even schedule-only
	// configurations, which draw nothing from it — so activation never
	// depends on which fields happen to consume randomness. Observed runs
	// take the same pipeline, which with nothing configured delivers every
	// message on time and records the round's deliveries.
	var crashed []bool
	if cfg.Faults.active() || cfg.Reliable.enabled() || cfg.Observer != nil {
		var faultRng *rand.Rand
		if cfg.Faults.active() {
			faultRng = rand.New(rand.NewSource(nodeSeed(cfg.Seed, 1<<30)))
		}
		crashed = make([]bool, n)
		x.del = newDelivery(&cfg, g, faultRng, x, crashed)
	}

	// The fault pipeline's draws and the observed order are defined in
	// global sender order, so a run that takes it stays sequential, which
	// I5 makes byte-identical; the pool serves the rest.
	var pool *shardPool
	if cfg.Parallel && x.del == nil && n > 0 {
		shards := cfg.Shards
		if shards <= 0 {
			shards = runtime.GOMAXPROCS(0)
		}
		pool = newShardPool(x.nodeSet, shards)
		defer pool.stop()
	} else {
		x.fr = newFrontier(idRange(0, n))
	}

	// The crash/recovery schedules are maps; compile them once into fire
	// lists sorted by (round, id) and consume them with cursors, so rounds
	// past the last scheduled event pay nothing and no per-round walk ever
	// touches randomized map iteration order.
	var crashFires, recoverFires []fireEvent
	if len(cfg.Faults.CrashAtRound) > 0 {
		crashFires = compileFires(cfg.Faults.CrashAtRound)
		recoverFires = compileFires(cfg.Faults.RecoverAtRound)
	}
	var crashCur, recoverCur int
	// live counts the nodes not yet halted.
	live := n
	end := func(rounds int, err error) (Stats, error) {
		stats.Rounds = rounds
		stats.FinalLive = live
		return stats, err
	}

	for round := 0; ; round++ {
		if round >= maxRounds {
			return end(round, fmt.Errorf("%w (budget %d)", ErrRoundLimit, maxRounds))
		}
		for crashCur < len(crashFires) && crashFires[crashCur].at == round {
			id := int(crashFires[crashCur].id)
			crashCur++
			// A node whose crash never fired (it halted voluntarily first)
			// stays down.
			if x.halted[id] {
				continue
			}
			x.halted[id] = true
			crashed[id] = true
			stats.Crashed++
			live--
			x.fr.dropCrashed(int32(id))
			if x.del.shim != nil {
				x.del.shim.onCrash(int32(id))
			}
		}
		// Recovery rejoins a crashed node with empty protocol state: the
		// environment (identity, neighbours, private rng) survives, the
		// state machine restarts.
		for recoverCur < len(recoverFires) && recoverFires[recoverCur].at == round {
			id := int(recoverFires[recoverCur].id)
			recoverCur++
			if !crashed[id] {
				continue
			}
			crashed[id] = false
			x.halted[id] = false
			stats.Recovered++
			live++
			x.fr.revive(int32(id))
			nodes[id].(Recoverable).Recover()
		}
		if live == 0 && !pendingFires(recoverFires[recoverCur:], crashed) {
			return end(round, nil)
		}
		stats.LiveNodeRounds += int64(live)

		if pool != nil {
			halts, err := pool.runRound(round, &stats)
			live -= halts
			if err != nil {
				return end(round+1, err)
			}
			continue
		}
		live -= x.compute(round)
		if err := x.merge(round); err != nil {
			return end(round+1, err)
		}
		if cfg.Observer != nil {
			cfg.Observer(round, x.del.delivered)
		}
	}
}

// nodeSet is the node-indexed state of one execution, shared by all of its
// spans — each holds a copy of these slice headers over the same backing
// arrays: the caller's nodes, the Envs of the ids the execution runs, and
// the halted flags and next-round inboxes, indexed by global node id. A
// shard worker may write an entry only at a node id of its own shard.
type nodeSet struct {
	graph  *Graph
	nodes  []Node
	envs   []Env // the Env of node id is envs[id-lo]
	lo     int
	halted []bool
	// inboxes[id] is node id's inbox for the next round: nil until its
	// first delivery of the round gives it a region of the delivering
	// span's inbox chunks (see span.reserve), and nil again once the next
	// merge clears it, because the chunks are reused every round.
	inboxes [][]Message
}

// newNodeSet lays out the Envs of ids lo..hi-1 of an n-node graph, with
// buf as their round buffer, and initializes their nodes. The Env structs
// and the once-per-neighbour generation stamps (one slot per directed
// edge) each live in one flat block, the stamps partitioned by the CSR row
// offsets, so a shard's rounds walk a contiguous region of both.
func newNodeSet(g *Graph, nodes []Node, lo, hi, n int, cfg Config, buf *sendBuf) nodeSet {
	base, top := g.rowStart[lo], g.rowStart[hi]
	genAll := make([]uint32, top-base)
	ns := nodeSet{graph: g, nodes: nodes, envs: make([]Env, hi-lo), lo: lo, halted: make([]bool, n), inboxes: make([][]Message, n)}
	for id := lo; id < hi; id++ {
		s, e := g.rowOffsets(id)
		s, e = s-base, e-base
		env := &ns.envs[id-lo]
		*env = Env{
			id:       int32(id),
			graph:    g,
			seed:     nodeSeed(cfg.Seed, id),
			bitLimit: cfg.BitLimit,
			sentGen:  genAll[s:e:e],
			buf:      buf,
			// gen starts at 1 so a zero-valued sentGen slot never collides
			// with a live generation.
			gen: 1,
		}
		nodes[id].Init(env)
	}
	return ns
}

func (ns *nodeSet) env(id int32) *Env { return &ns.envs[int(id)-ns.lo] }

// owns reports whether node id runs in this execution.
func (ns *nodeSet) owns(id int) bool { return uint(id-ns.lo) < uint(len(ns.envs)) }

// span is the round executor: one compute walk over a set of nodes, one
// accounting of each sender's output (Stats.account), and one delivery
// into the next round's inboxes. The runners differ only in how they wire
// spans together — Run is one span over every node, a parallel run is one
// span per contiguous shard whose worker accounts its own senders and
// ingests every shard's staged records addressed to it (shard.go), and
// RunShard is one span whose drain hands remote traffic to a Transport.
type span struct {
	nodeSet
	// fr schedules the span's nodes. Every span that computes and merges
	// has one; only Run's span of a parallel run, whose shard spans
	// schedule its nodes, has none.
	fr    *frontier
	stats *Stats
	// del, when set, is the fault pipeline every drained message takes.
	del *delivery
	// buf is the round buffer the span's nodes stage into.
	buf sendBuf
	// bcast is the reused scratch a broadcast record expands into (see
	// expand); it grows to the largest degree that broadcasts.
	bcast []Message
	// remote holds the drained messages to nodes the span does not run,
	// which RunShard hands to its transport.
	remote []Message
	// inbox holds the regions of the inboxes the span delivers to. Every
	// merge rewinds it (clearInboxes), so an inbox region lives for
	// exactly one round.
	inbox msgChunks
}

// compute is the frontier walk: it runs the span's active nodes for one
// round in ascending id order, compacting halters, crashed nodes and
// sleepers out of the active list in place and recording the round's
// senders. It returns how many nodes halted.
func (x *span) compute(round int) int {
	fr := x.fr
	fr.admitWoken(round)
	x.buf.begin()
	fr.senders = fr.senders[:0]
	keep := fr.active[:0]
	halts := 0
	for _, id := range fr.active {
		if x.halted[id] {
			continue
		}
		env := x.env(id)
		env.beginRound()
		h := x.nodes[id].Round(round, x.inboxes[id])
		if len(env.out) > 0 || env.sendErr != nil || env.rejected != 0 {
			fr.senders = append(fr.senders, id)
		}
		if h {
			x.halted[id] = true
			halts++
			continue
		}
		if env.sleepUntil > round+1 {
			fr.park(id, env.sleepUntil)
			continue
		}
		keep = append(keep, id)
	}
	fr.active = keep
	return halts
}

// merge is the deterministic merge of one round on a single goroutine: it
// clears the inboxes read this round, drains the round's senders in
// ascending id order, and ends the fault pipeline's round. Because each
// sender stages at most one message per recipient per round (enforced by
// Env.Send) and senders are walked in id order, every inbox comes out
// sorted by sender id with no per-inbox sort. The buffers are reused, so
// steady-state rounds allocate nothing here.
func (x *span) merge(round int) error {
	if x.del != nil {
		x.del.beginRound(round)
	}
	x.clearInboxes()
	for _, id := range x.fr.senders {
		if err := x.drain(round, x.env(id)); err != nil {
			return err
		}
	}
	if x.del != nil {
		x.del.injectForged(round)
		x.del.finishRound(round)
	}
	return nil
}

// drain processes one node's staged output for the round: it accounts the
// output and routes every message, broadcast records expanded, to the
// fault pipeline, in place to an owned recipient, or to remote. The
// env and its records are left as they are; beginRound resets them when
// the node next runs.
func (x *span) drain(round int, env *Env) error {
	if err := x.stats.account(env); err != nil {
		return err
	}
	for i := range env.out {
		msgs := env.out[i : i+1]
		if env.out[i].To == broadcastTo {
			msgs = x.expand(env.out[i])
		}
		for _, msg := range msgs {
			switch {
			case x.del != nil:
				x.del.transmit(round, msg)
			case x.owns(int(msg.To)):
				x.reserve(msg.To)
				x.deliver(msg)
			default:
				x.remote = append(x.remote, msg)
			}
		}
	}
	return nil
}

// expand writes the messages broadcast record rec stands for, one per
// neighbour of its sender in Neighbors order and all sharing its payload,
// into the span's reused scratch, and returns them. Delivering from the
// scratch keeps the per-message loops of the drains as tight as for sent
// messages.
func (x *span) expand(rec Message) []Message {
	lo, hi := x.graph.rowOffsets(int(rec.From))
	nbrs := x.graph.nbrs[lo:hi]
	if cap(x.bcast) < len(nbrs) {
		x.bcast = make([]Message, len(nbrs))
	}
	msgs := x.bcast[:len(nbrs)]
	for k, v := range nbrs {
		msgs[k] = Message{From: rec.From, To: v, Payload: rec.Payload}
	}
	return msgs
}

// account counts one node's staged output for the round: it returns the
// node's recorded send violation, if any, before touching its records;
// otherwise it counts every message — a broadcast record as one per
// neighbour — and the node's fail-closed rejects.
func (st *Stats) account(env *Env) error {
	if env.sendErr != nil {
		return env.sendErr
	}
	if len(env.out) > 0 {
		st.Senders++
	}
	for _, rec := range env.out {
		k := int64(1)
		if rec.To == broadcastTo {
			k = int64(len(env.sentGen))
		}
		bits := rec.Bits()
		st.Messages += k
		st.Bits += k * int64(bits)
		if bits > st.MaxMessageBits {
			st.MaxMessageBits = bits
		}
	}
	st.Rejected += env.rejected
	return nil
}

// clearInboxes starts a merge: the inboxes read this round are dead, so
// the frontier resets the ones it knows were filled to nil, and the inbox
// chunks are rewound for the next round's regions.
func (x *span) clearInboxes() {
	x.inbox.rewind()
	x.fr.clearInboxes(x.inboxes)
}

// reserve gives node to's inbox its capacity on the node's first delivery
// of the round: a region of exactly Degree(to) messages, which bounds a
// fault-free inbox, carved from the span's inbox chunks with its capacity
// clamped to the region. Only duplicated or delayed fault traffic can
// overflow it, and then append moves that one inbox to a private
// allocation, never into a neighbour's region. A halted recipient gets no
// region: deliver drops its messages, so its inbox would not be listed
// for the next clear, and a region it kept past this round would alias
// another node's inbox once it recovered. Every delivery path calls
// reserve just before deliver; folding it into deliver would push
// deliver past the inlining budget.
func (x *span) reserve(to int32) {
	if cap(x.inboxes[to]) == 0 && !x.halted[to] {
		x.carveInbox(to)
	}
}

// carveInbox hands node to a Degree(to)-message region of the inbox
// chunks.
func (x *span) carveInbox(to int32) {
	d := x.graph.Degree(int(to))
	x.inboxes[to] = x.inbox.room(d, chunkSize(x.graph))
	x.inbox.used += d
}

// deliver appends msg to its recipient's next-round inbox and records the
// recipient's first message of the round for the frontier, which clears
// that inbox in the next merge and wakes the recipient if it sleeps
// (admitWoken). Messages to halted nodes are delivered to nobody (the drain
// has already counted them).
func (x *span) deliver(msg Message) {
	to := msg.To
	if x.halted[to] {
		return
	}
	box := x.inboxes[to]
	if len(box) == 0 {
		x.fr.recips = append(x.fr.recips, to)
	}
	x.inboxes[to] = append(box, msg)
}

// idRange returns the ids lo..hi-1 in ascending order.
func idRange(lo, hi int) []int32 {
	ids := make([]int32, 0, hi-lo)
	for id := lo; id < hi; id++ {
		ids = append(ids, int32(id))
	}
	return ids
}

// fireEvent is one precompiled fault-schedule entry: the crash or recovery
// of node id at the start of round at.
type fireEvent struct {
	at int
	id int32
}

// compileFires flattens a node->round schedule map into a fire list sorted
// by (round, id) — the order the engine's per-round walk applied — consumed
// by a cursor so schedule-free rounds cost nothing.
func compileFires(sched map[int]int) []fireEvent {
	if len(sched) == 0 {
		return nil
	}
	fires := make([]fireEvent, 0, len(sched))
	for id, at := range sched { //flvet:ordered sorted by (round, id) immediately below
		fires = append(fires, fireEvent{at: at, id: int32(id)})
	}
	sort.Slice(fires, func(i, j int) bool {
		if fires[i].at != fires[j].at {
			return fires[i].at < fires[j].at
		}
		return fires[i].id < fires[j].id
	})
	return fires
}

// pendingFires keeps the run alive while a currently-crashed node has a
// recovery still ahead of it (every unconsumed fire is strictly in the
// future), even if every live node has halted.
func pendingFires(remaining []fireEvent, crashed []bool) bool {
	for _, f := range remaining {
		if crashed[f.id] {
			return true
		}
	}
	return false
}

// nodeSeed mixes the run seed with the node id (splitmix64 finalizer) so
// node streams are independent yet reproducible.
func nodeSeed(seed int64, id int) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*uint64(id+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}

// SuggestedBitLimit returns a CONGEST-style message budget for an n-node
// network: a small constant multiple of log2(n), rounded up to whole bytes.
func SuggestedBitLimit(n int) int {
	bits := 1
	for 1<<bits < n {
		bits++
	}
	b := 4 * bits // c * log n with c = 4
	if b < 64 {
		b = 64
	}
	return ((b + 7) / 8) * 8
}
