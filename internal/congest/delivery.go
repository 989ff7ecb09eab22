package congest

import "math/rand"

// Reliable configures the per-link acknowledge/retransmit shim. The shim
// sits between Env.Send/Broadcast and the wire, so protocols opt in through
// Config without code changes: every staged message becomes a sequenced
// frame, the receiver's link layer acknowledges each arrival, and
// unacknowledged frames are retransmitted with a deterministic linear
// backoff until the retry budget runs out. Retransmit and ack traffic is
// accounted separately in Stats (Retransmits/RetransmitBits, Acks/AckBits)
// and never pollutes the protocol-level Messages/Bits counters; in a
// fault-free run every frame is delivered on its first attempt, so the
// protocol-visible execution is byte-identical with the shim on or off.
type Reliable struct {
	// RetryBudget is the number of retransmissions the shim may spend on a
	// single frame beyond its initial attempt; 0 disables the shim
	// entirely. A frame sent in round r is retried at rounds r+2, r+5,
	// r+9, ... (attempt a is followed by a wait of a+1 rounds) until it is
	// acknowledged or the budget is exhausted.
	RetryBudget int
}

func (r Reliable) enabled() bool { return r.RetryBudget > 0 }

// delivery is the fault-aware message path. The plain engine merge hands
// each message straight to span.deliver (sharded across workers in the
// parallel runner); this layer replaces it whenever faults, the reliable
// shim, or an observer are configured, running in the sequential
// runner's deterministic merge — Run never starts the shard pool for such
// a run — so a parallel request stays byte-identical to the sequential
// run (invariant I5). Every protocol-visible delivery — staged, delayed,
// retransmitted, forged — funnels through commit into the merging span's
// deliver, which keeps the frontier's recipient list complete.
//
// Per merge round the order of operations — and therefore the order of
// fault-stream draws — is fixed: (1) acknowledgements due this round, (2)
// the staged messages in ascending sender-id order (byzantine rewrite,
// schedule block, drop, delay, corruption, duplication), (3) byzantine
// injections on silent links in ascending sender-id and adjacency order,
// (4) delayed messages coming out of flight, (5) shim retransmissions due
// this round.
type delivery struct {
	faults   *Faults
	sched    *faultSchedule
	rng      *rand.Rand // nil when no probabilistic fault is configured
	graph    *Graph
	bitLimit int
	x        *span  // the merging span: halted flags and deliver
	crashed  []bool // the nodes down by a crash
	stats    *Stats
	observer func(round int, delivered []Message)
	// byzFrom[id] is the round from which node id is byzantine, -1 when it
	// never is; nil when no byzantine schedule is configured.
	byzFrom []int
	// byzSent[e] is 1 + the merge round in which a byzantine sender last
	// staged a real message on directed edge e (Graph.inEdge), so the
	// injection pass only forges on links the node left silent.
	byzSent []uint32
	// checkFrames arms the reliable shim's link-layer framing check
	// (ValidatePayload on every arrival), only under corruption or
	// byzantine schedules: protocols outside the payload registry (tests,
	// user protocols) may ship unregistered frames, and absent an
	// adversary every frame is trusted.
	checkFrames bool
	// delivered is the observer's per-round view (reused across rounds),
	// handed to it at the end of each round's merge.
	delivered []Message
	// delayed holds what is in flight past its send round: plain messages,
	// with payloads owned by the delivery layer because round buffers do
	// not survive the extra rounds, or the shim's frames.
	delayed []delayedMsg
	shim    *reliShim
}

// delayedMsg is one in-flight unit, due at the receiver in merge round at:
// a plain message, or, when the shim is on, the frame in slot.
type delayedMsg struct {
	at   int
	msg  Message
	slot int32
}

func newDelivery(cfg *Config, g *Graph, x *span) *delivery {
	n := g.N()
	faults := &cfg.Faults
	d := &delivery{
		faults:      faults,
		sched:       faults.compile(n),
		graph:       g,
		bitLimit:    cfg.BitLimit,
		x:           x,
		crashed:     make([]bool, n),
		stats:       x.stats,
		observer:    cfg.Observer,
		checkFrames: faults.CorruptProb > 0 || len(faults.ByzantineFromRound) > 0,
	}
	// Fault randomness lives on its own stream so that a Faults{} run is
	// byte-identical to a fault-free run with the same seed. The stream is
	// created whenever any fault feature is active — even schedule-only
	// configurations, which draw nothing from it — so activation never
	// depends on which fields happen to consume randomness.
	if faults.active() {
		d.rng = rand.New(rand.NewSource(nodeSeed(cfg.Seed, 1<<30)))
	}
	if len(faults.ByzantineFromRound) > 0 {
		d.byzFrom = make([]int, n)
		for id := range d.byzFrom {
			if at, ok := faults.ByzantineFromRound[id]; ok {
				d.byzFrom[id] = at
			} else {
				d.byzFrom[id] = -1
			}
		}
		d.byzSent = make([]uint32, g.rowStart[n])
	}
	if cfg.Reliable.enabled() {
		d.shim = &reliShim{
			budget:  cfg.Reliable.RetryBudget,
			nextSeq: make([]uint64, g.rowStart[n]),
			recvWin: make([]SeqWindow, g.rowStart[n]),
		}
	}
	return d
}

// beginRound starts the merge of one round: reset the observer view and
// land the acknowledgements due, so frames acked on schedule are never
// retransmitted.
func (d *delivery) beginRound(round int) {
	d.delivered = d.delivered[:0]
	if d.shim != nil {
		d.shim.processAcks(d, round)
	}
}

// transmit runs one staged protocol message through the fault pipeline (or
// hands it to the shim). Called in ascending sender-id order; the payload
// still lives in the sending span's round buffer, so anything that outlives
// this round is copied. A byzantine sender's payload is adversarially rewritten
// first — independently per recipient, so a broadcast equivocates by
// construction — and the rewrite is what the shim sequences and retransmits.
func (d *delivery) transmit(round int, msg Message) {
	if d.byzantineAt(msg.From, round) {
		d.byzSent[d.graph.inEdge(msg.From, msg.To)] = uint32(round + 1)
		p := d.forge(round, msg.From, msg.To, msg.Payload)
		if p == nil {
			return // the adversary chose silence on this link
		}
		d.stats.Forged++
		msg.Payload = p
	}
	if d.shim != nil {
		d.shim.sendData(d, round, msg)
		return
	}
	d.plainTransmit(round, msg)
}

// byzantineAt reports whether node id's network interface is compromised at
// the given round.
func (d *delivery) byzantineAt(id int32, round int) bool {
	return d.byzFrom != nil && d.byzFrom[id] >= 0 && round >= d.byzFrom[id]
}

// forge produces the wire payload for one byzantine transmission (orig ==
// nil for an injection on a silent link): the protocol-aware Forger when one
// is installed, generic mangling otherwise. Oversized forgeries are clipped
// to the engine's bit limit so an adversary cannot exceed the CONGEST
// message budget.
func (d *delivery) forge(round int, from, to int32, orig []byte) []byte {
	var p []byte
	if d.faults.Forger != nil {
		p = d.faults.Forger(d.rng, round, int(from), int(to), orig)
	} else {
		p = forgePayload(d.rng, orig)
	}
	if p != nil && d.bitLimit > 0 && len(p)*8 > d.bitLimit {
		p = p[:d.bitLimit/8]
	}
	return p
}

// injectForged runs the byzantine injection pass for one merge round: every
// byzantine node, in ascending id order, forges a frame on each neighbour
// link (adjacency order) it left silent this round. A halted or crashed
// byzantine node is dead hardware and injects nothing. Injections bypass the
// shim's sequencing — the adversary writes raw frames on the wire — but not
// the receiver's link-layer framing check.
func (d *delivery) injectForged(round int) {
	if d.byzFrom == nil {
		return
	}
	n := d.graph.N()
	for id := int32(0); int(id) < n; id++ {
		if !d.byzantineAt(id, round) || d.x.halted[id] {
			continue
		}
		for _, to := range d.graph.Neighbors(int(id)) {
			if d.byzSent[d.graph.inEdge(id, to)] == uint32(round+1) {
				continue
			}
			p := d.forge(round, id, to, nil)
			if p == nil {
				continue
			}
			d.stats.Forged++
			if d.shim != nil && d.checkFrames {
				if _, err := ValidatePayload(p); err != nil {
					d.stats.Rejected++
					continue
				}
			}
			d.commit(Message{From: id, To: to, Payload: p}, true)
		}
	}
}

func (d *delivery) plainTransmit(round int, msg Message) {
	if d.dropOnWire(msg.From, msg.To, round) {
		d.stats.Dropped++
		return
	}
	if k := d.faults.delayRounds(d.rng, round); k > 0 {
		d.stats.Delayed++
		msg.Payload = append([]byte(nil), msg.Payload...)
		d.delayed = append(d.delayed, delayedMsg{at: round + k, msg: msg})
		return
	}
	if d.faults.shouldCorrupt(d.rng, round) {
		// The mangled bytes replace the staged payload for every copy of
		// this wire transmission (a duplicate repeats the same corrupted
		// frame); fail-closed protocol decoders are the defence. Delayed
		// messages are never corrupted, mirroring duplication.
		d.stats.Corrupted++
		msg.Payload = corruptPayload(d.rng, msg.Payload)
	}
	dup := d.rng != nil && d.faults.shouldDup(d.rng)
	d.commit(msg, false)
	if dup {
		// The duplicate lands adjacent to the original, which keeps the
		// inbox sorted by sender id. Delayed messages are never duplicated.
		d.stats.Duplicated++
		d.commit(msg, false)
	}
}

// dropOnWire decides whether one wire transmission from -> to is lost:
// deterministic schedules (bursts, link downs, partitions) first — they
// consume no randomness — then the probabilistic drop.
func (d *delivery) dropOnWire(from, to int32, round int) bool {
	if d.sched != nil && d.sched.blocked(int(from), int(to), round) {
		return true
	}
	return d.faults.shouldDrop(d.rng, round)
}

// commit finalizes one protocol-visible delivery: the observer sees it
// even when the recipient has halted. injected marks deliveries arriving
// outside the sender-ordered walk (delayed messages, retransmissions),
// which are moved to their sorted position to preserve the born-sorted
// invariant.
func (d *delivery) commit(msg Message, injected bool) {
	if d.observer != nil {
		d.delivered = append(d.delivered, msg)
	}
	d.x.reserve(msg.To)
	d.x.growInbox(msg.To)
	d.x.deliver(msg)
	if injected {
		settleLast(d.x.inboxes[msg.To])
	}
}

// finishRound ends the merge of one round: land delayed messages whose
// flight time is up, then run the retransmissions that have come due.
func (d *delivery) finishRound(round int) {
	kept := d.delayed[:0]
	for _, dm := range d.delayed {
		switch {
		case dm.at > round:
			kept = append(kept, dm)
		case d.shim != nil:
			d.shim.arrive(d, round, dm.slot, d.shim.frames[dm.slot].payload(), true)
			d.shim.release(dm.slot)
		default:
			d.commit(dm.msg, true)
		}
	}
	d.delayed = kept
	if d.shim != nil {
		d.shim.retransmitDue(d, round)
	}
	if d.observer != nil {
		d.observer(round, d.delivered)
	}
}

// settleLast moves the last message of an inbox that is otherwise sorted
// by ascending sender id to its sorted position, after any messages already
// present from the same sender (so same-sender arrival order is preserved).
// An inbox that is sorted already is left as it is.
func settleLast(inbox []Message) {
	for i := len(inbox) - 1; i > 0 && inbox[i-1].From > inbox[i].From; i-- {
		inbox[i-1], inbox[i] = inbox[i], inbox[i-1]
	}
}

// reliShim is the per-link acknowledge/retransmit layer. Sequence state
// models the link hardware, not protocol state: it survives node crashes
// and recoveries, which is what lets a retransmission land after its
// receiver rejoins. It is kept in flat arrays indexed by directed-edge slot
// (Graph.inEdge), so a crash clears the receiver's row. Frames are values
// in one table, named by slot everywhere else, and a slot is reused only
// under the rule stated at release.
type reliShim struct {
	budget  int
	nextSeq []uint64    // per edge: the next sequence number to send
	recvWin []SeqWindow // per edge: the receiver's duplicate window
	frames  []frame
	free    []int32 // slots of frames no list names any more
	// pending holds unacknowledged frames in creation order; acknowledged
	// and dead frames are compacted out as they are encountered.
	pending []int32
	// acks holds the frames this merge round's arrivals acknowledge, in
	// arrival order; the acks go out next round, on the reverse links.
	acks   []int32
	ackBuf []byte
}

// frame is one sequenced protocol message owned by the shim. A payload of
// up to 16 bytes is kept in place; a longer one, which needs a bit limit
// above 128 or none, spills to a heap copy.
type frame struct {
	from, to int32
	edge     int // slot of the directed edge from→to
	seq      uint64
	nextTx   int   // round of the next retransmission if unacked by then
	attempts int32 // wire transmissions so far (1 = the initial send)
	refs     int32 // entries of pending, acks and delayed naming the frame
	acked    bool
	n        uint8 // length of an inline payload
	inline   [16]byte
	spill    []byte
}

func (f *frame) payload() []byte {
	if f.spill != nil {
		return f.spill
	}
	return f.inline[:f.n:f.n]
}

// sendData wraps one staged protocol message into a frame and runs its
// initial wire attempt.
func (s *reliShim) sendData(d *delivery, round int, msg Message) {
	if len(s.free) == 0 {
		s.free = append(s.free, int32(len(s.frames)))
		s.frames = append(s.frames, frame{})
	}
	i := s.free[len(s.free)-1]
	s.free = s.free[:len(s.free)-1]
	e := d.graph.inEdge(msg.From, msg.To)
	f := &s.frames[i]
	*f = frame{from: msg.From, to: msg.To, edge: e, seq: s.nextSeq[e], nextTx: round + 2, attempts: 1, refs: 1}
	s.nextSeq[e]++
	f.n = uint8(copy(f.inline[:], msg.Payload))
	if len(msg.Payload) > len(f.inline) {
		f.spill = append([]byte(nil), msg.Payload...)
	}
	s.pending = append(s.pending, i)
	s.attempt(d, round, i, false)
}

// release drops one reference to frame i. A slot returns to the free list
// only when no entry of pending, acks or delayed names it (refs is 0) and
// the recipient's round that reads the frame's committed payload has
// computed. The first implies the second: an arrival that commits the
// payload in merge r also queues an ack, which processAcks consumes in
// merge r+1, and compute(r+1) runs before merge(r+1).
func (s *reliShim) release(i int32) {
	if s.frames[i].refs--; s.frames[i].refs == 0 {
		s.free = append(s.free, i)
	}
}

// attempt runs one wire transmission of frame i through the fault
// pipeline. Duplication faults are not applied to frames: the sequence
// window makes wire duplicates invisible to the protocol by construction.
func (s *reliShim) attempt(d *delivery, round int, i int32, retx bool) {
	f := &s.frames[i]
	if retx {
		d.stats.Retransmits++
		d.stats.RetransmitBits += int64(len(f.payload()) * 8)
	}
	if d.dropOnWire(f.from, f.to, round) {
		d.stats.Dropped++
		return
	}
	if k := d.faults.delayRounds(d.rng, round); k > 0 {
		d.stats.Delayed++
		f.refs++
		d.delayed = append(d.delayed, delayedMsg{at: round + k, slot: i})
		return
	}
	payload := f.payload()
	if d.faults.shouldCorrupt(d.rng, round) {
		// Corruption mutates this one wire attempt, never the frame itself:
		// a retransmission resends the intact original. Delayed frames are
		// never corrupted, mirroring the plain path.
		d.stats.Corrupted++
		payload = corruptPayload(d.rng, payload)
	}
	s.arrive(d, round, i, payload, retx)
}

// arrive is one wire arrival of frame i at the receiver. A crashed
// receiver's link layer is down: the attempt is lost without touching the
// receive window, so a later retransmission can still land after the node
// recovers. A live receiver acknowledges every arrival — including window
// duplicates, whose original ack may have been lost — but only
// window-fresh frames reach the protocol. Voluntarily halted nodes still
// acknowledge (their link layer outlives the state machine), which stops
// pointless retries at completed receivers.
func (s *reliShim) arrive(d *delivery, round int, i int32, payload []byte, injected bool) {
	f := &s.frames[i]
	if d.crashed[f.to] {
		return
	}
	if d.checkFrames {
		if _, err := ValidatePayload(payload); err != nil {
			// Link-layer framing check: a frame corrupted beyond recognition
			// is discarded unacknowledged, so a retransmission of the intact
			// original can still land. Corruption that keeps a valid frame
			// shape passes — protocol decoders are the last line of defence.
			d.stats.Rejected++
			return
		}
	}
	if s.recvWin[f.edge].Accept(f.seq) {
		d.commit(Message{From: f.from, To: f.to, Payload: payload}, injected)
	}
	f.refs++
	s.acks = append(s.acks, i)
}

// processAcks transmits the acknowledgements of the last merge round's
// arrivals on their reverse links. Acks are themselves droppable
// (schedules and DropProb apply) but never delayed: a late ack is
// indistinguishable from a lost one followed by a redundant,
// window-absorbed retransmission. Ack bits are measured with the engine's
// registered LINK-ACK encoding and accounted apart from protocol traffic.
func (s *reliShim) processAcks(d *delivery, round int) {
	for _, i := range s.acks {
		// A crashed acking node sends nothing: its ack died with it.
		if f := &s.frames[i]; !d.crashed[f.to] {
			s.ackBuf = EncodeKindUvarint(s.ackBuf, kindAck, f.seq)
			d.stats.Acks++
			d.stats.AckBits += int64(len(s.ackBuf) * 8)
			if d.dropOnWire(f.to, f.from, round) {
				d.stats.Dropped++
			} else {
				f.acked = true
			}
		}
		s.release(i)
	}
	s.acks = s.acks[:0]
}

// retransmitDue retries the unacknowledged frames whose backoff expires
// this round and compacts settled frames out of the pending queue. A
// crashed sender's queue is wiped — its un-acked frames die with it — and
// a frame whose budget is spent is abandoned and counted in Stats.LinkDowns.
func (s *reliShim) retransmitDue(d *delivery, round int) {
	kept := s.pending[:0]
	for _, i := range s.pending {
		f := &s.frames[i]
		switch {
		case f.acked || d.crashed[f.from]:
			s.release(i)
		case f.nextTx != round:
			kept = append(kept, i)
		case int(f.attempts) > s.budget:
			d.stats.LinkDowns++
			s.release(i)
		default:
			f.attempts++
			f.nextTx = round + 1 + int(f.attempts)
			s.attempt(d, round, i, true)
			kept = append(kept, i)
		}
	}
	s.pending = kept
}

// onCrash wipes the crashed node's receive windows, its row of in-edges:
// its inbox state died with it, so frames it had accepted but never
// processed must be accepted again when retransmitted after recovery.
// Sequence counters and its peers' windows for frames it sent stay:
// resetting them would make post-recovery frames collide with pre-crash
// history at the receivers.
func (s *reliShim) onCrash(g *Graph, id int32) {
	lo, hi := g.rowOffsets(int(id))
	clear(s.recvWin[lo:hi])
}

// SeqWindow deduplicates a directed link's frames with a sliding 64-entry
// window: base is the lowest sequence number still tracked, mask its
// seen-bits. Anything below base was necessarily seen (the window only
// slides past acknowledged history). The zero value is an empty window.
// It is shared infrastructure of both reliable layers: the simulator's
// shim above and the UDP backend's datagram links (internal/transport/udp),
// which must absorb wire duplicates the same way.
type SeqWindow struct {
	base uint64
	mask uint64
}

// Accept reports whether seq is new on this link and marks it seen.
func (w *SeqWindow) Accept(seq uint64) bool {
	if seq < w.base {
		return false
	}
	if seq >= w.base+64 {
		shift := seq - 63 - w.base
		if shift >= 64 {
			w.mask = 0
		} else {
			w.mask >>= shift
		}
		w.base = seq - 63
	}
	bit := uint64(1) << (seq - w.base)
	if w.mask&bit != 0 {
		return false
	}
	w.mask |= bit
	return true
}
