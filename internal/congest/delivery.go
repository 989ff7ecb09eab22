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
// shim, or an observer are configured, running entirely on the caller
// goroutine during the deterministic merge — the sharded runner's workers
// then run only the compute walk — so the parallel runner stays
// byte-identical to the sequential one (invariant I5). Every
// protocol-visible delivery — staged, delayed, retransmitted, forged —
// funnels through commit into the merging span's deliver, which keeps the
// frontier's recipient list complete.
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
	x        *span // the merging span: halted flags and deliver
	crashed  []bool
	stats    *Stats
	observe  bool
	// byzFrom[id] is the round from which node id is byzantine, -1 when it
	// never is; nil when no byzantine schedule is configured.
	byzFrom []int
	// byzSent tracks, per directed link, the merge round (stored as
	// round+1 so the map's zero value never collides with round 0) in which
	// a byzantine sender last staged a real message, so the injection pass
	// only forges on links the node left silent.
	byzSent map[uint64]int
	// checkFrames arms the reliable shim's link-layer framing check
	// (ValidatePayload on every arrival). It is armed only under corruption
	// or byzantine schedules: protocols outside the payload registry (tests,
	// user protocols) may legitimately ship unregistered frames, and absent
	// an adversary every frame is trusted, exactly as before.
	checkFrames bool
	// delivered is the observer's per-round view (reused across rounds).
	delivered []Message
	// delayed holds messages and frames in flight past their send round.
	delayed []delayedMsg
	shim    *reliShim
	// onLinkDown receives the typed per-link report when the shim abandons
	// a frame with its retry budget exhausted (Config.OnLinkDown).
	onLinkDown func(LinkDownError)
}

// delayedMsg is one in-flight unit: either a plain message (payload owned
// by the delivery layer — round arenas do not survive the extra rounds) or
// a shim frame awaiting its deferred wire arrival.
type delayedMsg struct {
	at  int // merge round at which the unit reaches the receiver
	msg Message
	f   *frame // non-nil when the unit is a shim frame
}

func newDelivery(cfg *Config, g *Graph, rng *rand.Rand, x *span, crashed []bool) *delivery {
	n := g.N()
	faults := &cfg.Faults
	d := &delivery{
		faults:      faults,
		sched:       faults.compile(n),
		rng:         rng,
		graph:       g,
		bitLimit:    cfg.BitLimit,
		x:           x,
		crashed:     crashed,
		stats:       x.stats,
		observe:     cfg.Observer != nil,
		checkFrames: faults.CorruptProb > 0 || len(faults.ByzantineFromRound) > 0,
		onLinkDown:  cfg.OnLinkDown,
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
		d.byzSent = make(map[uint64]int)
	}
	if cfg.Reliable.enabled() {
		d.shim = &reliShim{
			n:       n,
			budget:  cfg.Reliable.RetryBudget,
			nextSeq: make(map[uint64]uint64),
			recvWin: make(map[uint64]*SeqWindow),
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
// still lives in the sender's round arena, so anything that outlives this
// round is copied. A byzantine sender's payload is adversarially rewritten
// first — independently per recipient, so a broadcast equivocates by
// construction — and the rewrite is what the shim sequences and retransmits.
func (d *delivery) transmit(round int, msg Message) {
	if d.byzantineAt(msg.From, round) {
		d.byzSent[linkKey(msg.From, msg.To, d.graph.N())] = round + 1
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
func (d *delivery) byzantineAt(id, round int) bool {
	return d.byzFrom != nil && d.byzFrom[id] >= 0 && round >= d.byzFrom[id]
}

// forge produces the wire payload for one byzantine transmission (orig ==
// nil for an injection on a silent link): the protocol-aware Forger when one
// is installed, generic mangling otherwise. Oversized forgeries are clipped
// to the engine's bit limit so an adversary cannot exceed the CONGEST
// message budget.
func (d *delivery) forge(round, from, to int, orig []byte) []byte {
	var p []byte
	if d.faults.Forger != nil {
		p = d.faults.Forger(d.rng, round, from, to, orig)
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
	for id := 0; id < n; id++ {
		if !d.byzantineAt(id, round) || d.x.halted[id] {
			continue
		}
		for _, to := range d.graph.Neighbors(id) {
			if d.byzSent[linkKey(id, to, n)] == round+1 {
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
		owned := Message{From: msg.From, To: msg.To, Payload: append([]byte(nil), msg.Payload...)}
		d.delayed = append(d.delayed, delayedMsg{at: round + k, msg: owned})
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
func (d *delivery) dropOnWire(from, to, round int) bool {
	if d.sched != nil && d.sched.blocked(from, to, round) {
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
	if d.observe {
		d.delivered = append(d.delivered, msg)
	}
	d.x.deliver(msg)
	if injected {
		settleLast(d.x.inboxes[msg.To])
	}
}

// finishRound ends the merge of one round: land delayed messages whose
// flight time is up, then run the retransmissions that have come due.
func (d *delivery) finishRound(round int) {
	if len(d.delayed) > 0 {
		kept := d.delayed[:0]
		for _, dm := range d.delayed {
			if dm.at > round {
				kept = append(kept, dm)
				continue
			}
			if dm.f != nil {
				d.shim.arrive(d, round, dm.f, dm.f.payload, true)
			} else {
				d.commit(dm.msg, true)
			}
		}
		d.delayed = kept
	}
	if d.shim != nil {
		d.shim.retransmitDue(d, round)
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
// (per-directed-link counters and receive windows) models the link
// hardware, not protocol state: it survives node crashes and recoveries,
// which is what lets a retransmission land after its receiver rejoins.
type reliShim struct {
	n       int
	budget  int
	nextSeq map[uint64]uint64
	recvWin map[uint64]*SeqWindow
	// pending holds unacknowledged frames in creation order; acknowledged
	// and dead frames are compacted out as they are encountered.
	pending []*frame
	// acks holds acknowledgements awaiting their transmit round, in the
	// order the triggering arrivals were processed.
	acks   []ackEvent
	ackBuf []byte
}

// frame is one sequenced protocol message owned by the shim.
type frame struct {
	from, to int
	seq      uint64
	payload  []byte
	attempts int // wire transmissions so far (1 = the initial send)
	nextTx   int // round of the next retransmission if unacked by then
	acked    bool
}

// ackEvent is one pending acknowledgement: the receiver's link layer
// answers an arrival in the round after it, on the reverse link.
type ackEvent struct {
	f  *frame
	tx int
}

func linkKey(from, to, n int) uint64 {
	return uint64(from)*uint64(n) + uint64(to)
}

// sendData wraps one staged protocol message into a fresh frame and runs
// its initial wire attempt.
func (s *reliShim) sendData(d *delivery, round int, msg Message) {
	key := linkKey(msg.From, msg.To, s.n)
	seq := s.nextSeq[key]
	s.nextSeq[key] = seq + 1
	f := &frame{
		from:     msg.From,
		to:       msg.To,
		seq:      seq,
		payload:  append([]byte(nil), msg.Payload...),
		attempts: 1,
		nextTx:   round + 2,
	}
	s.pending = append(s.pending, f)
	s.attempt(d, round, f, false)
}

// attempt runs one wire transmission of f through the fault pipeline.
// Duplication faults are not applied to frames: the sequence window makes
// wire duplicates invisible to the protocol by construction.
func (s *reliShim) attempt(d *delivery, round int, f *frame, retx bool) {
	if retx {
		d.stats.Retransmits++
		d.stats.RetransmitBits += int64(len(f.payload) * 8)
	}
	if d.dropOnWire(f.from, f.to, round) {
		d.stats.Dropped++
		return
	}
	if k := d.faults.delayRounds(d.rng, round); k > 0 {
		d.stats.Delayed++
		d.delayed = append(d.delayed, delayedMsg{at: round + k, f: f})
		return
	}
	payload := f.payload
	if d.faults.shouldCorrupt(d.rng, round) {
		// Corruption mutates this one wire attempt, never the frame itself:
		// a retransmission resends the intact original. Delayed frames are
		// never corrupted, mirroring the plain path.
		d.stats.Corrupted++
		payload = corruptPayload(d.rng, payload)
	}
	s.arrive(d, round, f, payload, retx)
}

// arrive is one wire arrival at the receiver. A crashed receiver's link
// layer is down: the attempt is lost without touching the receive window,
// so a later retransmission can still land after the node recovers. A live
// receiver acknowledges every arrival — including window duplicates, whose
// original ack may have been lost — but only window-fresh frames reach the
// protocol. Voluntarily halted nodes still acknowledge (their link layer
// outlives the state machine), which stops pointless retries at completed
// receivers.
func (s *reliShim) arrive(d *delivery, round int, f *frame, payload []byte, injected bool) {
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
	if s.win(linkKey(f.from, f.to, s.n)).Accept(f.seq) {
		d.commit(Message{From: f.from, To: f.to, Payload: payload}, injected)
	}
	s.acks = append(s.acks, ackEvent{f: f, tx: round + 1})
}

// processAcks transmits the acknowledgements due this round on their
// reverse links. Acks are themselves droppable (schedules and DropProb
// apply) but never delayed: a late ack is indistinguishable from a lost
// one followed by a redundant, window-absorbed retransmission. Ack bits
// are measured with the engine's registered LINK-ACK encoding and
// accounted separately from protocol traffic.
func (s *reliShim) processAcks(d *delivery, round int) {
	if len(s.acks) == 0 {
		return
	}
	kept := s.acks[:0]
	for _, a := range s.acks {
		if a.tx != round {
			kept = append(kept, a)
			continue
		}
		if d.crashed[a.f.to] {
			continue // the acking node crashed before the ack left
		}
		s.ackBuf = EncodeKindUvarint(s.ackBuf, kindAck, a.f.seq)
		d.stats.Acks++
		d.stats.AckBits += int64(len(s.ackBuf) * 8)
		if d.dropOnWire(a.f.to, a.f.from, round) {
			d.stats.Dropped++
			continue
		}
		a.f.acked = true
	}
	s.acks = kept
}

// retransmitDue retries the unacknowledged frames whose backoff expires
// this round and compacts settled frames out of the pending queue. A
// crashed sender's queue is wiped — its un-acked frames die with it — and
// a frame whose budget is spent is abandoned with a typed per-link report:
// Stats.LinkDowns counts the event and Config.OnLinkDown (when installed)
// receives the LinkDownError naming the peer, the round of the
// declaration, and the wire attempts spent. Reports fire in pending-queue
// order (frame creation order), which is deterministic under every runner.
func (s *reliShim) retransmitDue(d *delivery, round int) {
	if len(s.pending) == 0 {
		return
	}
	kept := s.pending[:0]
	for _, f := range s.pending {
		if f.acked || d.crashed[f.from] {
			continue
		}
		if f.nextTx != round {
			kept = append(kept, f)
			continue
		}
		if f.attempts >= 1+s.budget {
			d.stats.LinkDowns++
			if d.onLinkDown != nil {
				d.onLinkDown(LinkDownError{From: f.from, To: f.to, Round: round, Attempts: f.attempts})
			}
			continue
		}
		f.attempts++
		f.nextTx = round + 1 + f.attempts
		s.attempt(d, round, f, true)
		kept = append(kept, f)
	}
	s.pending = kept
}

// onCrash wipes the crashed node's receive windows: its inbox state died
// with it, so frames it had accepted but never processed must be accepted
// again when retransmitted after recovery. Sender-side sequence counters
// (its own nextSeq entries and its peers' windows for frames it sent) are
// deliberately left intact — resetting them would make post-recovery
// frames collide with pre-crash history at the receivers.
func (s *reliShim) onCrash(id int) {
	for from := 0; from < s.n; from++ {
		delete(s.recvWin, linkKey(from, id, s.n))
	}
}

func (s *reliShim) win(key uint64) *SeqWindow {
	w := s.recvWin[key]
	if w == nil {
		w = &SeqWindow{}
		s.recvWin[key] = w
	}
	return w
}

// SeqWindow deduplicates a directed link's frames with a sliding 64-entry
// window: base is the lowest sequence number still tracked, mask its
// seen-bits. Anything below base was necessarily seen (the window only
// slides past acknowledged history). The zero value is an empty window.
// It is shared infrastructure of both reliable layers: the simulator's
// shim below and the UDP backend's datagram links
// (internal/transport/udp), which must absorb wire duplicates the same
// way.
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
