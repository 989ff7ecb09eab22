package udp

import (
	"errors"
	"fmt"
	"net"
	"net/netip"
	"sync"
	"time"

	"dfl/internal/congest"
)

// inflightCap bounds unacknowledged frames per link. It must stay at or
// below congest.SeqWindow's 64-entry width: with every in-flight frame
// inside the receiver's dedup window, a retransmitted duplicate can never
// slide the window past a frame that was genuinely lost.
const inflightCap = 32

// tick is the retransmission scan period. It also paces every
// condition-variable wait in the package, so timeouts resolve within one
// tick of their deadline.
const tick = 2 * time.Millisecond

// pending is one sequenced frame awaiting acknowledgement. Slots live in
// link.slots and are reused frame after frame, so wire keeps its capacity.
type pending struct {
	seq      uint64
	wire     []byte // full encoded datagram, retransmitted verbatim
	attempts int    // transmissions so far (1 = initial send)
	deadline time.Time
}

// link is the per-peer reliable state: sender-side sequence and in-flight
// tracking, receiver-side dedup window. Frames sit in slots, which never
// move between lists and are recycled through free, so a link's steady
// state sends without allocating.
type link struct {
	addr     netip.AddrPort // unmapped: the key of endpoint.links
	shard    int            // peer's shard id, -1 until learned from its first frame
	nextSeq  uint64
	window   congest.SeqWindow
	slots    []pending
	inflight []int32 // slots transmitted and unacknowledged, at most inflightCap
	queue    []int32 // flow-control overflow, FIFO
	free     []int32
	down     bool
}

// slot returns a free frame slot, growing the table only when every slot
// is in flight or queued.
func (l *link) slot() int32 {
	if n := len(l.free); n > 0 {
		i := l.free[n-1]
		l.free = l.free[:n-1]
		return i
	}
	l.slots = append(l.slots, pending{})
	return int32(len(l.slots) - 1)
}

// ack retires the in-flight frame seq, reporting whether one was found.
func (l *link) ack(seq uint64) bool {
	for k, i := range l.inflight {
		if l.slots[i].seq == seq {
			last := len(l.inflight) - 1
			l.inflight[k] = l.inflight[last]
			l.inflight = l.inflight[:last]
			l.free = append(l.free, i)
			return true
		}
	}
	return false
}

// datagramWriter is the send half of a socket; *net.UDPConn is one, and a
// Chaos wraps one.
type datagramWriter interface {
	WriteToUDPAddrPort(p []byte, addr netip.AddrPort) (int, error)
}

// unmap keys an address the way endpoint.links does. A book address comes
// from ResolveUDPAddr as a 16-byte IPv4, whose AddrPort is the v4-in-v6
// form, while a datagram read from an IPv4 socket carries the 4-byte form;
// unmapped, both name one link, and an IPv4 socket can write to it.
func unmap(ap netip.AddrPort) netip.AddrPort {
	return netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port())
}

// endpoint is one UDP party (a shard or the gateway): a socket, a reader
// goroutine, a retransmission timer and the per-peer links. Inbound frames
// are deduplicated, acknowledged and handed to the owner's handler with mu
// held; owners block on cond for state changes, woken by arrivals and by
// every timer tick (which makes plain cond waits deadline-capable).
type endpoint struct {
	shard  int // own shard id; gateways use the shard count k
	conn   *net.UDPConn
	out    datagramWriter // conn, or conn behind a Chaos
	policy Policy

	mu     sync.Mutex
	cond   *sync.Cond
	links  map[netip.AddrPort]*link
	closed bool

	// inc is this party's own incarnation, stamped on every outgoing frame.
	// Gateways are always 1; shards start at 1 (or 0 while rejoining, until
	// ADMIT assigns the real number). Guarded by mu.
	inc uint64
	// incOf reports the expected incarnation of a sending shard, or 0 for
	// unknown (which fences everything but ACK and REJOIN — an unknown peer
	// has no business delivering state). Nil disables fencing. Called with
	// mu held.
	incOf func(shard int) uint64

	// handler consumes each deduplicated non-ack frame; set before serve.
	// from is unmapped, and f.Body aliases the read buffer: a handler
	// copies what it keeps.
	handler func(from netip.AddrPort, f Frame)
	// onDown observes a peer link exhausting its retry budget.
	onDown func(l *link, e congest.LinkDownError)

	rejected int64 // malformed datagrams discarded fail-closed
	fenced   int64 // frames dropped for a stale or unknown incarnation

	wg     sync.WaitGroup
	sendMu sync.Mutex // serializes writes (UDPConn is safe, chaos wrappers may not be)
	outBuf []byte     // acks are rendered here; guarded by mu
}

// newEndpoint wraps an already-bound socket, writing through chaos when it
// is non-nil. The caller sets handler and onDown before calling serve.
func newEndpoint(shard int, conn *net.UDPConn, chaos *Chaos, policy Policy) *endpoint {
	ep := &endpoint{
		shard:  shard,
		conn:   conn,
		out:    conn,
		policy: policy,
		links:  make(map[netip.AddrPort]*link),
	}
	if chaos != nil {
		ep.out = chaos.wrap(conn)
	}
	ep.cond = sync.NewCond(&ep.mu)
	return ep
}

// serve starts the reader and retransmission goroutines.
func (ep *endpoint) serve() {
	ep.wg.Add(2)
	go ep.readLoop()
	go ep.timerLoop()
}

// close shuts the socket down and joins the background goroutines.
func (ep *endpoint) close() {
	ep.mu.Lock()
	ep.closed = true
	ep.cond.Broadcast()
	ep.mu.Unlock()
	ep.conn.Close()
	ep.wg.Wait()
}

// link returns the link to addr, which must be unmapped.
func (ep *endpoint) link(addr netip.AddrPort) *link {
	l := ep.links[addr]
	if l == nil {
		l = &link{addr: addr, shard: -1, inflight: make([]int32, 0, inflightCap)}
		ep.links[addr] = l
	}
	return l
}

func (ep *endpoint) readLoop() {
	defer ep.wg.Done()
	buf := make([]byte, 2048)
	for {
		n, from, err := ep.conn.ReadFromUDPAddrPort(buf)
		if err != nil {
			ep.mu.Lock()
			closed := ep.closed
			ep.cond.Broadcast()
			ep.mu.Unlock()
			if closed {
				return
			}
			// Transient socket errors (e.g. ICMP-induced) are just loss.
			continue
		}
		f, err := DecodeFrame(buf[:n])
		if err != nil {
			ep.mu.Lock()
			ep.rejected++
			ep.mu.Unlock()
			continue
		}
		ep.mu.Lock()
		if ep.closed {
			ep.mu.Unlock()
			return
		}
		from = unmap(from)
		l := ep.link(from)
		if l.shard < 0 {
			l.shard = f.Shard
		}
		if f.Kind == frAck {
			if l.ack(f.Seq) {
				ep.drainQueueLocked(l)
			}
			ep.cond.Broadcast()
			ep.mu.Unlock()
			continue
		}
		// Incarnation fence, before the ack: a frame from a stale (or not
		// yet admitted) incarnation must not be acknowledged either — the
		// ack-before-dedup discipline below means an acked frame is settled,
		// and a zombie's frame must never settle. REJOIN is exempt because a
		// recovering shard does not know its next incarnation yet; ACKs are
		// exempt because they carry no state and fencing them would wedge
		// the zombie's retransmission (harmless) and nothing else.
		if f.Kind != frRejoin && ep.incOf != nil && f.Inc != ep.incOf(f.Shard) {
			ep.fenced++
			ep.mu.Unlock()
			continue
		}
		// Acknowledge before dedup: a duplicate means our previous ack was
		// lost, and the sender needs another one to stop retransmitting.
		ep.writeAck(l, f)
		if !l.window.Accept(f.Seq) {
			ep.mu.Unlock()
			continue
		}
		// The frame body aliases the read buffer; handlers copy what they
		// keep (they run with mu held, before the next read).
		if ep.handler != nil {
			ep.handler(from, f)
		}
		ep.cond.Broadcast()
		ep.mu.Unlock()
	}
}

// timerLoop retransmits overdue frames and wakes cond waiters every tick.
func (ep *endpoint) timerLoop() {
	defer ep.wg.Done()
	t := time.NewTicker(tick)
	defer t.Stop()
	for now := range t.C {
		ep.mu.Lock()
		if ep.closed {
			ep.mu.Unlock()
			return
		}
		for _, l := range ep.links {
			if l.down {
				continue
			}
			for _, i := range l.inflight {
				p := &l.slots[i]
				if now.Before(p.deadline) {
					continue
				}
				if ep.policy.Exhausted(p.attempts) {
					l.down = true
					e := congest.LinkDownError{From: ep.shard, To: l.shard, Attempts: p.attempts}
					if ep.onDown != nil {
						ep.onDown(l, e)
					}
					break
				}
				p.attempts++
				p.deadline = now.Add(ep.policy.Delay(p.attempts - 1))
				ep.writeDatagram(l.addr, p.wire)
			}
			if l.down {
				// Abandon everything in flight or queued for a dead peer; a
				// down link never sends again.
				l.slots, l.inflight, l.queue, l.free = nil, nil, nil, nil
			}
		}
		ep.cond.Broadcast()
		ep.mu.Unlock()
	}
}

// sendReliable sequences a frame on the link to addr and transmits it,
// honouring the in-flight cap (excess frames queue and go out as acks make
// room). Caller holds mu. Frames to a link already declared down are
// dropped: the peer is dead, the degradation ladder has moved on.
func (ep *endpoint) sendReliable(addr netip.AddrPort, f Frame) {
	ep.sendFrame(addr, f, 0, 0)
}

// sendChunked splits body into maxChunk pieces (at least one, even when
// empty) and sends each reliably as a frame of kind whose body is a chunk
// header and the piece. Records are far smaller than a chunk by the
// CONGEST bit limit, but they may straddle chunks: receivers reassemble
// the whole body before parsing it. Caller holds mu.
func (ep *endpoint) sendChunked(addr netip.AddrPort, kind byte, round int, body []byte) {
	parts := max((len(body)+maxChunk-1)/maxChunk, 1)
	for part := 0; part < parts; part++ {
		lo := part * maxChunk
		hi := min(lo+maxChunk, len(body))
		ep.sendFrame(addr, Frame{Kind: kind, Round: round, Body: body[lo:hi]}, part, parts)
	}
}

// sendFrame renders f into a free slot of the link to addr, with a chunk
// header before the body when parts > 0, and transmits or queues it.
func (ep *endpoint) sendFrame(addr netip.AddrPort, f Frame, part, parts int) {
	l := ep.link(addr)
	if l.down {
		return
	}
	f.Shard = ep.shard
	f.Inc = ep.inc
	f.Seq = l.nextSeq
	l.nextSeq++
	i := l.slot()
	p := &l.slots[i]
	p.seq = f.Seq
	if p.wire == nil {
		// One buffer per slot for its lifetime: every frame a receiver
		// accepts fits.
		p.wire = make([]byte, 0, maxFrameHeader+maxFrameBody)
	}
	body := f.Body
	f.Body = nil
	p.wire = AppendFrame(p.wire[:0], f)
	if parts > 0 {
		p.wire = appendChunkHeader(p.wire, part, parts)
	}
	p.wire = append(p.wire, body...)
	if len(l.inflight) >= inflightCap {
		l.queue = append(l.queue, i)
		return
	}
	ep.transmitLocked(l, i)
}

func (ep *endpoint) drainQueueLocked(l *link) {
	n := min(len(l.queue), inflightCap-len(l.inflight))
	for _, i := range l.queue[:n] {
		ep.transmitLocked(l, i)
	}
	l.queue = l.queue[:copy(l.queue, l.queue[n:])]
}

func (ep *endpoint) transmitLocked(l *link, i int32) {
	p := &l.slots[i]
	p.attempts = 1
	p.deadline = time.Now().Add(ep.policy.Delay(0))
	l.inflight = append(l.inflight, i)
	ep.writeDatagram(l.addr, p.wire)
}

// writeAck answers a sequenced frame; acks are fire-and-forget and carry
// the acknowledged seq in their own seq field. Caller holds mu.
func (ep *endpoint) writeAck(l *link, f Frame) {
	ep.outBuf = AppendFrame(ep.outBuf[:0], Frame{Kind: frAck, Shard: ep.shard, Inc: ep.inc, Round: f.Round, Seq: f.Seq})
	ep.writeDatagram(l.addr, ep.outBuf)
}

func (ep *endpoint) writeDatagram(addr netip.AddrPort, wire []byte) {
	// Fire and forget: a failed write is indistinguishable from wire loss
	// and the retransmission machinery absorbs it either way.
	ep.sendMu.Lock()
	_, _ = ep.out.WriteToUDPAddrPort(wire, addr)
	ep.sendMu.Unlock()
}

// flushed reports whether every link is idle (nothing in flight or queued).
// Caller holds mu.
func (ep *endpoint) flushedLocked() bool {
	for _, l := range ep.links {
		if l.down {
			continue
		}
		if len(l.inflight) > 0 || len(l.queue) > 0 {
			return false
		}
	}
	return true
}

// errTimeout marks a waitUntil deadline lapse.
var errTimeout = errors.New("udp: timeout")

// waitUntil blocks (with mu held) until pred is true, the deadline lapses,
// or the endpoint closes. The timer loop's per-tick broadcast bounds how
// stale the deadline check can be.
func (ep *endpoint) waitUntil(deadline time.Time, pred func() bool) error {
	for !pred() {
		if ep.closed {
			return fmt.Errorf("udp: endpoint closed")
		}
		if !time.Now().Before(deadline) {
			return errTimeout
		}
		ep.cond.Wait()
	}
	return nil
}
