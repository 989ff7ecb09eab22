package congest

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
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
	// MaxRounds aborts runaway protocols. 0 means DefaultMaxRounds.
	MaxRounds int
	// Parallel selects the sharded runner: nodes are statically
	// partitioned into topology-aware shards, each owned by one persistent
	// worker goroutine started once per Run and reused every round.
	// Execution is byte-identical to the sequential runner for every shard
	// count (invariant I5).
	Parallel bool
	// Shards is the parallel runner's shard count, one worker goroutine per
	// shard; 0 means GOMAXPROCS.
	Shards int
	// Dense selects the reference O(n) scheduler of the sequential runner:
	// every round scans the full population for halt detection, compute,
	// merge, and inbox clears, and Env.SleepUntil declarations are ignored
	// (the declared no-op rounds execute for real). The default frontier
	// scheduler instead walks only the active node list, the round's
	// senders, and last round's recipients, making steady-state per-round
	// cost O(active + delivered) instead of O(n). Both produce
	// byte-identical executions (invariant I5); the determinism matrices pin
	// every frontier runner against this mode, which keeps none of the
	// frontier's lists, and it is the baseline of the E18 sparse-rounds
	// benchmark. Run rejects it together with Parallel, and RunShard
	// rejects it.
	Dense bool
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
	// OnLinkDown, when non-nil, receives a typed report every time the
	// reliable shim abandons a frame because its retry budget is exhausted:
	// which peer, at which round, after how many attempts. The calls happen
	// on the caller goroutine during the deterministic merge, in a
	// deterministic order. Stats.LinkDowns counts the same events.
	OnLinkDown func(LinkDownError)
}

// DefaultMaxRounds is the round budget when Config.MaxRounds is zero.
const DefaultMaxRounds = 1 << 20

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
	LinkDowns int64 // reliable-shim frames abandoned with the retry budget exhausted (see Config.OnLinkDown for the typed per-link reports)
	// Activity accounting of the frontier scheduler; the dense reference
	// mode tracks the same quantities, so I5 comparisons cover them.
	LiveNodeRounds int64 // sum over executed rounds of the not-yet-halted node count
	Senders        int64 // node-rounds in which a node staged at least one message
	FinalLive      int   // nodes not yet halted when the run returned
}

// Run executes nodes on g until every node has halted, returning model-level
// statistics. len(nodes) must equal g.N(). Nodes are the caller's own
// values; after Run returns the caller reads results directly out of them.
func Run(g *Graph, nodes []Node, cfg Config) (Stats, error) {
	if len(nodes) != g.N() {
		return Stats{}, fmt.Errorf("congest: %d nodes for graph of %d vertices", len(nodes), g.N())
	}
	if err := cfg.Faults.validate(len(nodes), nodes); err != nil {
		return Stats{}, err
	}
	if cfg.Reliable.RetryBudget < 0 {
		return Stats{}, fmt.Errorf("congest: RetryBudget %d is negative", cfg.Reliable.RetryBudget)
	}
	if cfg.Dense && cfg.Parallel {
		return Stats{}, fmt.Errorf("congest: Dense is the sequential reference scheduler and cannot be combined with Parallel")
	}
	maxRounds := cfg.MaxRounds
	if maxRounds == 0 {
		maxRounds = DefaultMaxRounds
	}

	g.Finalize()
	n := len(nodes)
	var stats Stats
	// x is the caller-side span over every node: it runs the whole round in
	// a sequential run and the merge of a parallel run whose delivery must
	// stay on this goroutine.
	x := &span{nodeSet: newNodeSet(g, nodes, 0, n, n, cfg), stats: &stats}

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

	// Fault delivery and observers need the merge on the caller goroutine
	// (fault-stream draws and the observed order are defined in global
	// sender order); honest unobserved parallel runs take the
	// contention-free per-destination-shard merge.
	var pool *shardPool
	switch {
	case cfg.Parallel && n > 0:
		shards := cfg.Shards
		if shards <= 0 {
			shards = runtime.GOMAXPROCS(0)
		}
		pool = newShardPool(g, x.nodeSet, shards, x.del != nil)
		defer pool.stop()
		x.fr = pool.callerFrontier()
	case !cfg.Dense:
		x.fr = newFrontier(idRange(0, n))
	}
	// frontierOf names the frontier that schedules node id: nil on the
	// dense reference, which keeps no lists.
	frontierOf := func(id int) *frontier {
		if pool != nil {
			return pool.spans[pool.shardOf[id]].fr
		}
		return x.fr
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
	// live counts the nodes not yet halted; the dense reference keeps it
	// for the activity stats but detects global halt by a full scan.
	live := n
	end := func(rounds int, err error) (Stats, error) {
		stats.Rounds = rounds
		stats.FinalLive = live
		return stats, err
	}
	// senders is the reused k-way merge buffer of a parallel run's
	// caller-side merges.
	var senders []int32

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
			if fr := frontierOf(id); fr != nil {
				fr.dropCrashed(int32(id))
			}
			if x.del.shim != nil {
				x.del.shim.onCrash(id)
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
			if fr := frontierOf(id); fr != nil {
				fr.revive(int32(id))
			}
			nodes[id].(Recoverable).Recover()
		}
		allHalted := live == 0
		if cfg.Dense {
			allHalted = !slices.Contains(x.halted, false)
		}
		if allHalted && !pendingFires(recoverFires[recoverCur:], crashed) {
			return end(round, nil)
		}
		stats.LiveNodeRounds += int64(live)

		var ids []int32
		switch {
		case pool != nil:
			// Sleepers the caller-side merge delivered to wake in the
			// frontiers of their shards.
			x.fr.admitWoken(round)
			halts, merged := pool.runRound(round)
			live -= halts
			if merged {
				pool.collect(&stats)
				continue
			}
			// A serial-merge run, or a round with a send violation: merge
			// on this goroutine, which reproduces the sequential runner
			// byte for byte (including the abort's partial accounting).
			senders = pool.mergedSenders(senders[:0])
			ids = senders
		case cfg.Dense:
			live -= x.computeDense(round)
		default:
			live -= x.compute(round)
			ids = x.fr.senders
		}
		if err := x.merge(round, ids); err != nil {
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
//
//flvet:shared every span of an execution indexes the same backing arrays by node id
type nodeSet struct {
	nodes   []Node
	envs    []Env // the Env of node id is envs[id-lo]
	lo      int
	halted  []bool
	inboxes [][]Message
}

// newNodeSet lays out the Envs of ids lo..hi-1 of an n-node graph and
// initializes their nodes. The Env structs, the once-per-neighbour
// generation stamps (one slot per directed edge) and the two payload arenas
// each live in one flat block partitioned by the CSR row offsets and sized
// to those ids' rows, so a shard's rounds walk a contiguous region of every
// array and steady-state rounds allocate nothing.
func newNodeSet(g *Graph, nodes []Node, lo, hi, n int, cfg Config) nodeSet {
	base, top := g.rowStart[lo], g.rowStart[hi]
	hint := payloadHint(cfg.BitLimit)
	genAll := make([]uint64, top-base)
	arenaAll := make([]byte, (top-base)*hint)
	prevAll := make([]byte, (top-base)*hint)
	ns := nodeSet{nodes: nodes, envs: make([]Env, hi-lo), lo: lo, halted: make([]bool, n), inboxes: make([][]Message, n)}
	for id := lo; id < hi; id++ {
		s, e := g.rowOffsets(id)
		s, e = s-base, e-base
		env := &ns.envs[id-lo]
		*env = Env{
			id:       id,
			graph:    g,
			seed:     nodeSeed(cfg.Seed, id),
			bitLimit: cfg.BitLimit,
			sentGen:  genAll[s:e:e],
			// gen starts at 1 so a zero-valued sentGen slot never collides
			// with a live generation.
			gen: 1,
			// Full-length capacity, zero length: append fills the node's own
			// slot and reallocates privately only if the slot overflows,
			// never spilling into a neighbour's region.
			arena:     arenaAll[s*hint : s*hint : e*hint],
			prevArena: prevAll[s*hint : s*hint : e*hint],
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
// span per shard whose worker stages messages by destination shard for the
// k-way merge in shard.go, and RunShard is one span whose drain hands
// remote traffic to a Transport.
type span struct {
	nodeSet
	// fr schedules the span's nodes; nil only on the dense reference.
	fr    *frontier
	stats *Stats
	// del, when set, is the fault pipeline every drained message takes.
	del *delivery
	// outbox holds the drained messages to nodes the span does not run:
	// outbox[0] for RunShard's transport, one stream per destination shard
	// for the parallel merge (see shardPool.stage).
	outbox [][]Message
}

// compute is the frontier walk: it runs the span's active nodes for one
// round in ascending id order, compacting halters and sleepers out of the
// active list in place and recording the round's senders. It returns how
// many nodes halted.
func (x *span) compute(round int) int {
	fr := x.fr
	fr.admitWoken(round)
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

// computeDense is the reference scheduler of Config.Dense: every node that
// has not halted runs, SleepUntil declarations are ignored, and no list is
// kept, so a frontier run pinned against it checks the frontier's active,
// sender and recipient lists.
func (x *span) computeDense(round int) int {
	halts := 0
	for id, nd := range x.nodes {
		if x.halted[id] {
			continue
		}
		x.envs[id].beginRound()
		if nd.Round(round, x.inboxes[id]) {
			x.halted[id] = true
			halts++
		}
	}
	return halts
}

// merge is the deterministic merge of one round on a single goroutine: it
// clears the inboxes read this round, drains the senders in ascending id
// order (every node on the dense reference), and ends the fault pipeline's
// round. Because each sender stages at most one message per recipient per
// round (enforced by Env.Send) and senders are walked in id order, every
// inbox comes out sorted by sender id with no per-inbox sort. The buffers
// are reused, so steady-state rounds allocate nothing here.
func (x *span) merge(round int, senders []int32) error {
	if x.del != nil {
		x.del.beginRound(round)
	}
	if x.fr != nil {
		x.fr.clearInboxes(x.inboxes)
		for _, id := range senders {
			if err := x.drain(round, x.env(id)); err != nil {
				return err
			}
		}
	} else {
		for id := range x.inboxes {
			x.inboxes[id] = x.inboxes[id][:0]
		}
		for id := range x.envs {
			env := &x.envs[id]
			if err := x.drain(round, env); err != nil {
				return err
			}
			// A node that halted this round may have sent final messages;
			// clear them so later full walks do not count them again.
			env.out = env.out[:0]
			env.rejected = 0
		}
	}
	if x.del != nil {
		x.del.injectForged(round)
		x.del.finishRound(round)
	}
	return nil
}

// drain processes one node's staged output for the round: it accounts the
// output and routes every message to the fault pipeline, in place to an
// owned recipient, or to outbox[0]. The env is left as it is — beginRound
// resets it when the node next runs — so a parallel round whose staging
// meets a send violation can be merged again from the same state on the
// caller goroutine.
func (x *span) drain(round int, env *Env) error {
	if err := x.stats.account(env); err != nil {
		return err
	}
	for _, msg := range env.out {
		switch {
		case x.del != nil:
			x.del.transmit(round, msg)
		case x.owns(msg.To):
			x.deliver(msg)
		default:
			x.outbox[0] = append(x.outbox[0], msg)
		}
	}
	return nil
}

// account counts one node's staged output for the round: it returns the
// node's recorded send violation, if any, before touching its messages;
// otherwise it counts every message and the node's fail-closed rejects.
func (st *Stats) account(env *Env) error {
	if env.sendErr != nil {
		return env.sendErr
	}
	if len(env.out) > 0 {
		st.Senders++
	}
	for _, msg := range env.out {
		bits := msg.Bits()
		st.Messages++
		st.Bits += int64(bits)
		if bits > st.MaxMessageBits {
			st.MaxMessageBits = bits
		}
	}
	st.Rejected += env.rejected
	return nil
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
	if len(box) == 0 && x.fr != nil {
		x.fr.recips = append(x.fr.recips, int32(to))
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

// payloadHint sizes the per-directed-edge arena slot from the configured
// bit limit: enough for a full-size payload per neighbour per round, capped
// so unlimited (LOCAL-model) runs don't over-reserve. Overflow just means a
// private reallocation for that one node, not an error.
func payloadHint(bitLimit int) int {
	h := bitLimit / 8
	if h < 4 {
		h = 4
	}
	if h > 16 {
		h = 16
	}
	return h
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
