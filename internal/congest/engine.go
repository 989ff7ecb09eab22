package congest

import (
	"errors"
	"fmt"
	"math"
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

// maxRoundBudget is the largest round budget a run accepts. The frontier
// keeps a sleeping node's timer round as a uint32 in which 0 means "no
// timer" (wakeSlot.at), so a budget of at most 2^32-2 rounds keeps every
// round a timer can name a nonzero uint32.
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
// budget: a node is still live when round MaxRounds would start. A run
// whose nodes have all halted by then ends cleanly, with Rounds equal to
// MaxRounds when the last of them halted in the final round.
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
	x, err := newExecutor(g, nodes, 0, n, &cfg)
	if err != nil {
		return Stats{}, err
	}

	// Faults and the reliable shim take the fault pipeline. Observed runs
	// take it too, which with nothing configured delivers every message on
	// time and records the round's deliveries for the Observer.
	if cfg.Faults.active() || cfg.Reliable.enabled() || cfg.Observer != nil {
		x.del = newDelivery(&cfg, g, &x.span)
		x.crashFires = compileFires(cfg.Faults.CrashAtRound)
		x.recoverFires = compileFires(cfg.Faults.RecoverAtRound)
	}

	// The fault pipeline's draws and the observed order are defined in
	// global sender order, so a run that takes it stays sequential, which
	// I5 makes byte-identical; the pool serves the rest. The pool's shard
	// spans share x's node state and schedule its nodes, so x then has no
	// frontier.
	if cfg.Parallel && x.del == nil && n > 0 {
		shards := cfg.Shards
		if shards <= 0 {
			shards = runtime.GOMAXPROCS(0)
		}
		x.pool = newShardPool(&x.span, shards)
		defer x.pool.stop()
	} else {
		x.fr = newFrontier(idRange(0, n))
	}
	return x.run(maxRounds)
}

// executor runs one execution round by round: it holds the span, the
// run's Stats, the live count and the round budget, and wraps the shared
// compute and merge in one of three edges. The in-process edge (Run)
// fires the crash and recovery schedule; its fault pipeline, which calls
// the Observer, runs inside the merge. The pool edge (Run with Parallel)
// hands each round's compute and merge to the shard workers. The
// transport edge (RunShard) opens each round with the Transport and
// exchanges the span's remote traffic through it after the merge.
type executor struct {
	span
	stats           Stats
	live, maxRounds int // live counts the span's nodes not yet halted
	// The crash/recovery schedules are maps; Run compiles them once into
	// fire lists sorted by (round, id), consumed with cursors, so rounds
	// past the last scheduled event pay nothing and no per-round walk ever
	// touches randomized map iteration order.
	crashFires, recoverFires []fireEvent
	crashCur, recoverCur     int
	pool                     *shardPool
	tr                       Transport
}

// newExecutor lays out the span of ids lo..hi-1 of g for a run under cfg
// and initializes those nodes. It returns the first send an Init made,
// which is a violation (see Node).
func newExecutor(g *Graph, nodes []Node, lo, hi int, cfg *Config) (x *executor, err error) {
	x = &executor{live: hi - lo}
	x.span = span{stats: &x.stats, cur: newCursor(g, cfg.Seed, cfg.BitLimit)}
	x.nodeSet, err = newNodeSet(nodes, lo, hi, g.N(), &x.cur)
	return x, err
}

// run is the round loop of every runner: it steps the executor under the
// round budget maxRounds until the run ends.
func (x *executor) run(maxRounds int) (Stats, error) {
	x.maxRounds = maxRounds
	for round := 0; ; round++ {
		if done, err := x.step(round); done {
			x.stats.FinalLive = x.live
			return x.stats, err
		}
	}
}

// step executes round and reports whether the run has ended, with its
// error if it failed; a run can end before the round starts. Stats.Rounds
// counts the rounds begun, so a round whose merge or exchange fails
// counts.
//
// The round budget has one rule. The run is over when its nodes are:
// every node has halted with no recovery pending, or, on a transport, the
// fleet reported so at Begin. A run whose nodes halt in the last round of
// the budget therefore ends cleanly with Rounds equal to MaxRounds, and
// one with a node still live when round MaxRounds would start fails with
// ErrRoundLimit. No crash or recovery fires at or past the budget.
func (x *executor) step(round int) (done bool, err error) {
	x.stats.Rounds = round
	if x.tr != nil {
		start, err := x.tr.Begin(round)
		if err != nil {
			return true, fmt.Errorf("congest: begin round %d: %w", round, err)
		}
		done = start.Done
	} else {
		if round < x.maxRounds {
			x.fire(round)
		}
		// A Recover call's send is a violation.
		err = x.cur.sendErr
		done = err != nil || x.live == 0 && !x.recovering()
	}
	if !done && round >= x.maxRounds {
		done, err = true, fmt.Errorf("%w (budget %d)", ErrRoundLimit, x.maxRounds)
	}
	if done {
		return true, err
	}
	x.stats.Rounds = round + 1
	x.stats.LiveNodeRounds += int64(x.live)
	if x.pool != nil {
		halts, err := x.pool.runRound(round, &x.stats)
		x.live -= halts
		return err != nil, err
	}
	x.live -= x.compute(round)
	if err := x.merge(round); err != nil {
		return true, err
	}
	if x.tr != nil {
		return x.exchange(round)
	}
	return false, nil
}

// fire applies the crashes and then the recoveries scheduled for the start
// of round.
func (x *executor) fire(round int) {
	for x.crashCur < len(x.crashFires) && x.crashFires[x.crashCur].at == round {
		id := int(x.crashFires[x.crashCur].id)
		x.crashCur++
		// A node whose crash never fired (it halted voluntarily first)
		// stays down.
		if x.halted[id] {
			continue
		}
		x.halted[id] = true
		x.del.crashed[id] = true
		x.stats.Crashed++
		x.live--
		x.fr.dropCrashed(int32(id))
		if x.del.shim != nil {
			x.del.shim.onCrash(x.graph, int32(id))
		}
	}
	// Recovery rejoins a crashed node with empty protocol state: the
	// environment (identity, neighbours, private rng) survives, the
	// state machine restarts.
	for x.recoverCur < len(x.recoverFires) && x.recoverFires[x.recoverCur].at == round {
		id := int(x.recoverFires[x.recoverCur].id)
		x.recoverCur++
		if !x.del.crashed[id] {
			continue
		}
		x.del.crashed[id] = false
		x.halted[id] = false
		x.stats.Recovered++
		x.live++
		x.fr.revive(int32(id))
		x.nodes[id].(Recoverable).Recover()
	}
}

// recovering reports whether a node that is down by a crash has a recovery
// still ahead of it (every unconsumed fire is strictly in the future),
// which keeps the run alive even if every live node has halted.
func (x *executor) recovering() bool {
	for _, f := range x.recoverFires[x.recoverCur:] {
		if x.del.crashed[f.id] {
			return true
		}
	}
	return false
}

// nodeSet is the node-indexed state of one execution, shared by all of its
// spans — each holds a copy of these slice headers over the same backing
// arrays: the caller's nodes, the Envs of the ids the execution runs, and
// the halted flags and next-round inboxes, indexed by global node id. A
// shard worker may write an entry only at a node id of its own shard.
// Nothing here is per edge, and an Env is 24 bytes: the send state of a
// round lives on the span's cursor.
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

// newNodeSet lays out the Envs of ids lo..hi-1 of the n-node graph of
// cursor c, in one flat block and all pointing at c, and initializes their
// nodes. It returns the first send an Init made, which is a violation (see
// Node).
func newNodeSet(nodes []Node, lo, hi, n int, c *cursor) (nodeSet, error) {
	ns := nodeSet{graph: c.graph, nodes: nodes, envs: make([]Env, hi-lo), lo: lo, halted: make([]bool, n), inboxes: make([][]Message, n)}
	for id := lo; id < hi; id++ {
		env := &ns.envs[id-lo]
		*env = Env{id: int32(id), c: c}
		nodes[id].Init(env)
	}
	return ns, c.sendErr
}

// owns reports whether node id runs in this execution.
func (ns *nodeSet) owns(id int) bool { return uint(id-ns.lo) < uint(len(ns.envs)) }

// span is the round work over a set of nodes: one compute walk, one
// accounting of each sender's output (Stats.account), and one delivery
// into the next round's inboxes. Every run steps one executor over one
// span; a parallel run adds one span per contiguous shard, whose worker
// accounts its own senders and ingests every shard's staged records
// addressed to it (shard.go), and RunShard's span collects its remote
// traffic for the Transport.
type span struct {
	nodeSet
	// fr schedules the span's nodes. Every span that computes and merges
	// has one; only Run's span of a parallel run, whose shard spans
	// schedule its nodes, has none.
	fr    *frontier
	stats *Stats
	// del, when set, is the fault pipeline every drained message takes.
	del *delivery
	// cur is the cursor every Env of the span's nodes points at: the run's
	// constants, the round buffer and the running node's send state.
	cur cursor
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
// sleepers out of the active list in place and moving each call's output
// off the cursor into the round's senders list. It touches no Env: a node
// reaches its Env only through its own calls. It returns how many nodes
// halted.
func (x *span) compute(round int) int {
	fr, c := x.fr, &x.cur
	fr.admitWoken(round)
	c.buf.begin()
	fr.senders = fr.senders[:0]
	keep := fr.active[:0]
	halts := 0
	for _, id := range fr.active {
		if x.halted[id] {
			continue
		}
		c.begin(id)
		h := x.nodes[id].Round(round, x.inboxes[id])
		if len(c.out) > 0 || c.sendErr != nil || c.rejected != 0 {
			fr.addSender(c.output())
		}
		if h {
			x.halted[id] = true
			halts++
			continue
		}
		if c.sleepUntil > round+1 {
			fr.park(id, c.sleepUntil)
			continue
		}
		keep = append(keep, id)
	}
	c.id = -1
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
	for i := range x.fr.senders {
		if err := x.drain(round, &x.fr.senders[i]); err != nil {
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
// records are left as they are; the next compute walk rewinds them.
func (x *span) drain(round int, s *sender) error {
	if err := x.stats.account(x.graph, s); err != nil {
		return err
	}
	for i := range s.out {
		msgs := s.out[i : i+1]
		if s.out[i].To == broadcastTo {
			msgs = x.expand(s.out[i])
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
func (st *Stats) account(g *Graph, s *sender) error {
	if s.err != nil {
		return s.err
	}
	if len(s.out) > 0 {
		st.Senders++
	}
	for _, rec := range s.out {
		k := int64(1)
		if rec.To == broadcastTo {
			lo, hi := g.rowOffsets(int(s.id))
			k = int64(hi - lo)
		}
		bits := rec.Bits()
		st.Messages += k
		st.Bits += k * int64(bits)
		st.MaxMessageBits = max(st.MaxMessageBits, bits)
	}
	st.Rejected += s.rejected
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

// growInbox moves node to's inbox, when it is full, to a region of the
// inbox chunks of twice its capacity. The fault pipeline calls it before
// each delivery: duplicates, delays and retransmissions can bring more
// than Degree(to) messages in a round, and letting deliver's append move
// the inbox would allocate again in every round they do.
func (x *span) growInbox(to int32) {
	box := x.inboxes[to]
	if len(box) == 0 || len(box) < cap(box) {
		return
	}
	c := 2 * cap(box)
	x.inboxes[to] = append(x.inbox.room(c, chunkSize(x.graph)), box...)
	x.inbox.used += c
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
	for id, at := range sched { // sorted by (round, id) immediately below
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
