package udp

import (
	"encoding/binary"
	"fmt"
	"net"
	"net/netip"
	"slices"
	"sort"
	"time"

	"dfl/internal/congest"
)

// Config tunes a deployment's timers. The zero value means defaults; every
// field has one.
type Config struct {
	// Policy is the per-link retransmission schedule.
	Policy Policy
	// GatherTimeout bounds how long a shard waits inside a round for peer
	// payloads before treating the stragglers as lost (partial-round
	// degradation: the protocol sees drops, not a hang).
	GatherTimeout time.Duration
	// BarrierTimeout bounds how long the gateway waits at a round barrier
	// before declaring silent shards down. It must exceed GatherTimeout
	// plus the policy's total retransmission wait, or slow links get
	// declared dead while still retrying.
	BarrierTimeout time.Duration
	// HelloTimeout bounds fleet assembly: the gateway's wait for every
	// shard's HELLO and a shard's wait for its WELCOME.
	HelloTimeout time.Duration
	// ResultTimeout bounds the gateway's wait for each surviving shard's
	// result fragment after the run completes.
	ResultTimeout time.Duration
	// AdmitWindow is the readmission deadline in rounds: a shard whose
	// REJOIN reaches the gateway more than AdmitWindow rounds after its
	// down declaration stays masked for the rest of the run.
	AdmitWindow int
}

func (c Config) withDefaults() Config {
	if c.Policy == (Policy{}) {
		c.Policy = DefaultPolicy
	}
	if c.GatherTimeout == 0 {
		c.GatherTimeout = c.Policy.TotalWait() + 200*time.Millisecond
	}
	if c.BarrierTimeout == 0 {
		c.BarrierTimeout = c.GatherTimeout + c.Policy.TotalWait() + time.Second
	}
	if c.HelloTimeout == 0 {
		c.HelloTimeout = 30 * time.Second
	}
	if c.ResultTimeout == 0 {
		c.ResultTimeout = 30 * time.Second
	}
	if c.AdmitWindow == 0 {
		c.AdmitWindow = 64
	}
	return c
}

// maxChunk bounds a DATA/RESULT chunk's payload so the chunk header and
// frame header fit under maxFrameBody together.
const maxChunk = 1100

// stream reassembles one chunked body: a peer's DATA batch for the open
// round at a shard, or a shard's RESULT at the gateway. Chunks are kept in
// arrival order in data and indexed by part in chunks, so storage grows
// with the chunks that actually arrive, never with the parts count a frame
// claims — that count is a number from the wire. A stream is reset and
// reused, keeping its capacity.
type stream struct {
	parts  int        // the stream's length, set by its first chunk; 0 while empty
	chunks []chunkRef // sorted by part
	data   []byte
}

// chunkRef locates one chunk's bytes in stream.data.
type chunkRef struct{ part, off, n int }

// add stores chunk part of parts. A chunk whose parts count disagrees
// with the stream's is refused; a part already held is ignored (the first
// copy wins).
func (s *stream) add(part, parts int, chunk []byte) error {
	if s.parts == 0 {
		s.parts = parts
	} else if parts != s.parts {
		return fmt.Errorf("udp: chunk %d/%d against stream of %d", part, parts, s.parts)
	}
	k := len(s.chunks)
	if k > 0 && s.chunks[k-1].part >= part {
		// Chunks mostly arrive in order and append; an earlier part is
		// inserted in place, or ignored if already held.
		var held bool
		k, held = slices.BinarySearchFunc(s.chunks, part, func(c chunkRef, part int) int { return c.part - part })
		if held {
			return nil
		}
	}
	s.chunks = slices.Insert(s.chunks, k, chunkRef{part: part, off: len(s.data), n: len(chunk)})
	s.data = append(grow(s.data, len(chunk)), chunk...)
	return nil
}

func (s *stream) complete() bool { return s.parts > 0 && len(s.chunks) == s.parts }

// appendBody appends the complete stream's body, in part order, to dst.
func (s *stream) appendBody(dst []byte) []byte {
	for _, c := range s.chunks {
		dst = append(dst, s.data[c.off:c.off+c.n]...)
	}
	return dst
}

func (s *stream) reset() {
	s.parts = 0
	s.chunks = s.chunks[:0]
	s.data = s.data[:0]
}

// grow returns s with room for n more elements. When it must move, it
// doubles the capacity (or takes just enough, if that is more), so a
// buffer's capacity stays within twice the most it has held. append's
// 1.25× steps for large slices allocate about five times a buffer's final
// size while it first fills, which in a fleet deployment's first busy
// rounds raised its peak RSS.
func grow[S ~[]E, E any](s S, n int) S {
	if cap(s)-len(s) >= n {
		return s
	}
	t := make(S, len(s), max(2*cap(s), len(s)+n))
	copy(t, s)
	return t
}

// Shard is the UDP implementation of congest.Transport: one per flnode
// process, speaking DATA frames to peer shards and the barrier control
// protocol to the gateway.
type Shard struct {
	ep  *endpoint
	id  int
	k   int
	cfg Config

	gwAddr netip.AddrPort

	// All fields below are guarded by ep.mu (handlers run with it held).
	welcomed bool
	peers    []netip.AddrPort // by shard id; the zero value for self
	spans    []congest.Span   // by shard id
	// peerInc is each peer's expected incarnation, the fencing table: zero
	// until WELCOME/ADMIT fills it (so pre-welcome DATA is fenced, not
	// parsed against a nil span table), updated by GO readmit records.
	peerInc []uint64
	maxGo   int    // highest round the gateway has opened; -1 initially
	goDown  []bool // down set from the newest GO (full replace, newest wins)
	goNext  []bool // the next GO's down set is decoded here, then swapped in
	// admitRound is the first round this incarnation participates in: 0
	// for an original process, the admission barrier for a rejoiner.
	// Rounds below it (already replayed from the checkpoint) are catch-up:
	// Begin opens instantly, Send drops, Gather returns nothing and sends
	// no READY — the fleet ran those rounds with the shard masked.
	admitRound int
	admitted   bool // Rejoin only: ADMIT received
	// pendingGo parks a GO that beat WELCOME/ADMIT to the socket (the
	// reliable link dedups but does not order); it is replayed once the
	// fleet book arrives.
	pendingGo *Frame
	done      bool
	gwLost    bool // gateway link exhausted its budget
	// gathered is the open round: rounds [0, gathered) are closed, and
	// the barrier lets no peer send DATA for a later round before this
	// shard's READY for this one, so DATA for any other round is rejected.
	gathered int
	// batch[sh] reassembles peer sh's DATA for round gathered; the reader
	// goroutine writes it, and Gather resets it when the round closes.
	batch []stream
	// in and arena are what the last Gather returned: the messages and
	// the payload bytes they alias. Only Gather writes them, and only on
	// the engine goroutine, so the engine reads payloads that no frame
	// arriving later can overwrite.
	in    []congest.Message
	arena []byte
	// out holds Send's per-peer DATA bodies, reused across rounds.
	out [][]byte
}

var _ congest.Transport = (*Shard)(nil)

// newShard binds the socket and assembles the endpoint shared by Dial and
// Rejoin. inc is the incarnation stamped on outgoing frames: 1 for an
// original process, 0 for a rejoiner that has not been assigned one yet.
func newShard(id, k int, gateway string, cfg Config, chaos *Chaos, inc uint64) (*Shard, error) {
	if id < 0 || id >= k {
		return nil, fmt.Errorf("udp: shard id %d outside [0,%d)", id, k)
	}
	gwAddr, err := net.ResolveUDPAddr("udp", gateway)
	if err != nil {
		return nil, fmt.Errorf("udp: resolve gateway: %w", err)
	}
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return nil, fmt.Errorf("udp: bind: %w", err)
	}
	cfg = cfg.withDefaults()
	s := &Shard{
		id:     id,
		k:      k,
		cfg:    cfg,
		gwAddr: unmap(gwAddr.AddrPort()),
		maxGo:  -1,
		goDown: make([]bool, k),
		goNext: make([]bool, k),
		batch:  make([]stream, k),
		out:    make([][]byte, k),
	}
	s.ep = newEndpoint(id, conn, chaos, cfg.Policy)
	s.ep.inc = inc
	s.ep.incOf = func(shard int) uint64 {
		if shard == k {
			return 1 // the gateway's incarnation is constant
		}
		if shard >= 0 && shard < k && s.peerInc != nil {
			return s.peerInc[shard]
		}
		return 0 // unknown peer (or pre-welcome): fence
	}
	s.ep.handler = s.handle
	s.ep.onDown = func(l *link) {
		if l.addr == s.gwAddr {
			s.gwLost = true
		}
		// A peer-shard link going down needs no local action: its DATA
		// simply stops arriving and Gather's timeout treats it as loss.
		// Down declarations are the gateway's authority alone.
	}
	s.ep.serve()
	return s, nil
}

// Dial binds a UDP socket (wrapped by chaos if non-nil), announces the
// shard to the gateway and blocks until the gateway's WELCOME delivers the
// fleet's address book. id is this shard's index in [0,k).
func Dial(id, k int, gateway string, cfg Config, chaos *Chaos) (*Shard, error) {
	s, err := newShard(id, k, gateway, cfg, chaos, 1)
	if err != nil {
		return nil, err
	}
	s.ep.mu.Lock()
	s.ep.sendReliable(s.gwAddr, Frame{Kind: frHello})
	err = s.ep.waitUntil(time.Now().Add(s.cfg.HelloTimeout), func() bool { return s.welcomed || s.gwLost })
	if err == nil && s.gwLost {
		err = fmt.Errorf("udp: gateway link down during hello")
	}
	s.ep.mu.Unlock()
	if err != nil {
		s.ep.close()
		return nil, fmt.Errorf("udp: shard %d joining fleet: %w", id, err)
	}
	return s, nil
}

// Rejoin is Dial's recovery twin: a process restored from a checkpoint
// covering rounds [0, resumeRound) announces itself with REJOIN and blocks
// until the gateway readmits it at a round barrier (ADMIT assigns its new
// incarnation and delivers the current fleet book) or the admission window
// is missed — the gateway never answers a refused rejoin, so refusal
// surfaces as the timeout here and the shard stays masked in the run. The
// returned transport serves rounds below the admission barrier as instant
// no-traffic catch-up rounds, so core.ResumeShard can drive it from round
// resumeRound regardless of how far the fleet has moved on.
func Rejoin(id, k int, gateway string, resumeRound int, cfg Config, chaos *Chaos) (*Shard, error) {
	s, err := newShard(id, k, gateway, cfg, chaos, 0)
	if err != nil {
		return nil, err
	}
	s.ep.mu.Lock()
	s.ep.sendReliable(s.gwAddr, Frame{Kind: frRejoin, Round: resumeRound})
	err = s.ep.waitUntil(time.Now().Add(s.cfg.HelloTimeout), func() bool { return s.admitted || s.gwLost })
	if err == nil && s.gwLost {
		err = fmt.Errorf("udp: gateway link down during rejoin")
	}
	if err == nil && s.admitRound < resumeRound {
		// Cannot happen with an honest gateway (a checkpoint can only cover
		// rounds the gateway has opened), but an admission behind the resume
		// point would demand traffic for rounds already replayed silently.
		err = fmt.Errorf("udp: admitted at round %d behind resume round %d", s.admitRound, resumeRound)
	}
	s.ep.mu.Unlock()
	if err != nil {
		s.ep.close()
		return nil, fmt.Errorf("udp: shard %d rejoining fleet: %w", id, err)
	}
	return s, nil
}

// AdmitRound reports the round barrier this process was readmitted at (0
// for an original Dial'ed process).
func (s *Shard) AdmitRound() int {
	s.ep.mu.Lock()
	defer s.ep.mu.Unlock()
	return s.admitRound
}

// Fenced reports how many frames this shard dropped for carrying a stale
// or unknown incarnation.
func (s *Shard) Fenced() int64 {
	s.ep.mu.Lock()
	defer s.ep.mu.Unlock()
	return s.ep.fenced
}

// Close releases the socket. Safe after any error.
func (s *Shard) Close() { s.ep.close() }

// handle runs on the reader goroutine with ep.mu held.
func (s *Shard) handle(_ netip.AddrPort, f Frame) {
	switch f.Kind {
	case frWelcome:
		if s.welcomed {
			return
		}
		peers, spans, incs, err := decodeBook(f.Body, s.k)
		if err != nil {
			s.ep.rejected++
			return
		}
		s.peers, s.spans, s.peerInc = peers, spans, incs
		s.welcomed = true
		s.replayPendingGoLocked()
	case frAdmit:
		if s.admitted || s.welcomed {
			return
		}
		inc, book, downList, err := decodeAdmit(f.Body)
		if err != nil {
			s.ep.rejected++
			return
		}
		peers, spans, incs, err := decodeBook(book, s.k)
		if err != nil {
			s.ep.rejected++
			return
		}
		down, err := decodeDownList(downList, s.k)
		if err != nil {
			s.ep.rejected++
			return
		}
		// Take the seat: adopt the assigned incarnation before any
		// sequenced frame goes out (the ack for this ADMIT is exempt from
		// fencing, so its stale stamp is harmless), and treat the admission
		// barrier as the first live round — the GO that follows this ADMIT
		// carries it.
		s.ep.inc = inc
		s.peers, s.spans, s.peerInc = peers, spans, incs
		s.goDown = down
		s.admitRound = f.Round
		s.maxGo = f.Round - 1
		s.gathered = f.Round
		s.admitted = true
		s.welcomed = true
		s.replayPendingGoLocked()
	case frGo:
		if !s.welcomed {
			// WELCOME/ADMIT and the round's GO travel on an unordered link;
			// a GO arriving first is already acked (it passed the fence —
			// the gateway's incarnation is known a priori), so park the
			// newest one for replay once the book lands rather than lose it
			// and deadlock the barrier.
			if s.pendingGo == nil || f.Round > s.pendingGo.Round {
				cp := f
				cp.Body = append([]byte(nil), f.Body...)
				s.pendingGo = &cp
			}
			return
		}
		s.applyGoLocked(f)
	case frDone:
		s.done = true
	case frData:
		if !s.welcomed || f.Shard < 0 || f.Shard >= s.k || f.Shard == s.id {
			return // nonsensical
		}
		if f.Round != s.gathered {
			// Late (Gather already timed out on it) or ahead of the
			// barrier, which no honest peer can be.
			s.ep.rejected++
			return
		}
		part, parts, chunk, err := decodeChunkHeader(f.Body)
		if err == nil {
			err = s.batch[f.Shard].add(part, parts, chunk)
		}
		if err != nil {
			s.ep.rejected++
		}
	}
}

// applyGoLocked applies a GO frame's body. Newest GO wins, older ones are
// ignored wholesale: reliable links dedup but do not order, and the down
// set is a full replacement now that shards can come back. The cumulative
// readmit records make the replacement safe — every GO carries every
// recovered peer's current address and incarnation, so no transition can
// be lost to a dropped frame.
func (s *Shard) applyGoLocked(f Frame) {
	readmits, err := decodeGoBody(s.goNext, f.Body, s.k)
	if err != nil {
		s.ep.rejected++
		return
	}
	if f.Round <= s.maxGo {
		return
	}
	s.maxGo = f.Round
	s.goDown, s.goNext = s.goNext, s.goDown
	for _, r := range readmits {
		if r.shard == s.id || r.inc <= s.peerInc[r.shard] {
			continue
		}
		s.peerInc[r.shard] = r.inc
		s.peers[r.shard] = r.addr
	}
}

func (s *Shard) replayPendingGoLocked() {
	if s.pendingGo != nil {
		s.applyGoLocked(*s.pendingGo)
		s.pendingGo = nil
	}
}

// Begin implements congest.Transport: it blocks until the gateway opens
// the round (or ends the run). A gateway that has gone silent past every
// timeout is a fatal error — with the sequencer dead there is no run left
// to degrade gracefully. Rounds below the admission barrier of a rejoined
// process are catch-up rounds: the fleet ran them with this shard masked,
// so they open instantly and carry no traffic either way.
func (s *Shard) Begin(round int) (congest.RoundStart, error) {
	s.ep.mu.Lock()
	defer s.ep.mu.Unlock()
	if round < s.admitRound {
		return congest.RoundStart{}, nil
	}
	deadline := time.Now().Add(2*s.cfg.BarrierTimeout + s.cfg.GatherTimeout)
	err := s.ep.waitUntil(deadline, func() bool { return s.done || s.maxGo >= round || s.gwLost })
	if s.done {
		return congest.RoundStart{Done: true}, nil
	}
	if s.gwLost {
		return congest.RoundStart{}, fmt.Errorf("udp: shard %d: gateway link down at round %d", s.id, round)
	}
	if err != nil {
		return congest.RoundStart{}, fmt.Errorf("udp: shard %d: no barrier for round %d: %w", s.id, round, err)
	}
	return congest.RoundStart{}, nil
}

// Send implements congest.Transport: it batches the round's remote
// messages per destination shard and ships each batch as chunked DATA
// frames. Every live peer receives a batch each round — an empty one if
// nothing is addressed to it — so receivers can tell "no traffic" from
// "batch lost". Messages to down shards are dropped silently; their nodes
// are already masked.
func (s *Shard) Send(round int, msgs []congest.Message) error {
	s.ep.mu.Lock()
	defer s.ep.mu.Unlock()
	if round < s.admitRound {
		// Catch-up round: the pre-crash incarnation already delivered these
		// messages (or the fleet absorbed their loss while the shard was
		// masked); replay only rebuilds local state.
		return nil
	}
	for sh := range s.out {
		s.out[sh] = s.out[sh][:0]
	}
	for _, m := range msgs {
		sh := s.owner(int(m.To))
		if sh < 0 {
			return fmt.Errorf("udp: message to node %d outside every span", m.To)
		}
		if sh == s.id || s.goDown[sh] {
			continue
		}
		s.out[sh] = appendMessageRecord(grow(s.out[sh], 3*binary.MaxVarintLen32+len(m.Payload)), int(m.From), int(m.To), m.Payload)
	}
	for sh := 0; sh < s.k; sh++ {
		if sh == s.id || s.goDown[sh] {
			continue
		}
		s.ep.sendChunked(s.peers[sh], frData, round, s.out[sh])
	}
	return nil
}

func (s *Shard) owner(id int) int {
	n := sort.Search(len(s.spans), func(i int) bool { return s.spans[i].Hi > id })
	if n < len(s.spans) && s.spans[n].Contains(id) {
		return n
	}
	return -1
}

// Gather implements congest.Transport: it waits (bounded by GatherTimeout)
// for the round's batch from every live peer, reports the round barrier to
// the gateway, and returns whatever arrived. Batches still missing at the
// timeout are lost traffic — partial-round degradation, not failure; if
// the peer is dead the gateway's barrier will mask it for the rounds that
// follow. The messages and their payloads stay valid until the next
// Gather.
func (s *Shard) Gather(round int, allHalted bool) ([]congest.Message, error) {
	s.ep.mu.Lock()
	defer s.ep.mu.Unlock()
	if round < s.admitRound {
		// Catch-up round: no peer traffic to collect and no READY — the
		// gateway ran this barrier without us.
		return nil, nil
	}
	if round != s.gathered {
		return nil, fmt.Errorf("udp: shard %d: gather for round %d while round %d is open", s.id, round, s.gathered)
	}
	deadline := time.Now().Add(s.cfg.GatherTimeout)
	_ = s.ep.waitUntil(deadline, func() bool {
		for sh := 0; sh < s.k; sh++ {
			if sh != s.id && !s.goDown[sh] && !s.batch[sh].complete() {
				return false
			}
		}
		return true
	})
	in := s.collectLocked()
	// Close the round: anything arriving for it later is stale.
	s.gathered = round + 1

	halted := []byte{0}
	if allHalted {
		halted[0] = 1
	}
	s.ep.sendReliable(s.gwAddr, Frame{Kind: frReady, Round: round, Body: halted})
	return in, nil
}

// collectLocked decodes the open round's complete batches into in and
// resets every batch for the next round. Each batch is copied into the
// arena and decoded there, so the payloads alias memory the reader
// goroutine never writes; the arena is grown once up front, so appending
// never moves what earlier payloads alias. A batch that fails to decode is
// rejected whole. Caller holds mu.
func (s *Shard) collectLocked() []congest.Message {
	size := 0
	for sh := range s.batch {
		if s.batch[sh].complete() {
			size += len(s.batch[sh].data)
		}
	}
	s.in, s.arena = s.in[:0], slices.Grow(s.arena[:0], size)
	for sh := range s.batch {
		b := &s.batch[sh]
		if b.complete() {
			lo := len(s.arena)
			s.arena = b.appendBody(s.arena)
			var err error
			if s.in, err = decodeBatch(s.in, s.arena[lo:], sh, s.spans); err != nil {
				s.ep.rejected++
			}
		}
		b.reset()
	}
	return s.in
}

// SendResult ships the shard's encoded fragment to the gateway and blocks
// until every frame is acknowledged (or the link dies / the timeout
// lapses).
func (s *Shard) SendResult(frag []byte) error {
	s.ep.mu.Lock()
	defer s.ep.mu.Unlock()
	s.ep.sendChunked(s.gwAddr, frResult, 0, frag)
	err := s.ep.waitUntil(time.Now().Add(s.cfg.ResultTimeout), func() bool {
		return s.gwLost || s.ep.flushedLocked()
	})
	if s.gwLost {
		return fmt.Errorf("udp: shard %d: gateway link down delivering result", s.id)
	}
	if err != nil {
		return fmt.Errorf("udp: shard %d: result delivery: %w", s.id, err)
	}
	return nil
}

// decodeBatch appends a complete DATA body's messages to dst, validating
// each payload against the registered wire kinds (fail closed: one bad
// record rejects the batch, exactly like the simulator shim's framing
// check, and leaves dst as it was) and each destination against the
// receiver's span layout. The payloads alias p.
func decodeBatch(dst []congest.Message, p []byte, fromShard int, spans []congest.Span) ([]congest.Message, error) {
	n := len(dst)
	for len(p) > 0 {
		from, to, payload, rest, err := decodeMessageRecord(p)
		if err != nil {
			return dst[:n], err
		}
		if !spans[fromShard].Contains(from) {
			return dst[:n], fmt.Errorf("udp: shard %d forged sender %d", fromShard, from)
		}
		if to >= spans[len(spans)-1].Hi {
			return dst[:n], fmt.Errorf("udp: shard %d sent to node %d outside every span", fromShard, to)
		}
		if _, err := congest.ValidatePayload(payload); err != nil {
			return dst[:n], err
		}
		// Both ids are range-checked above, so they fit the int32 node ids.
		dst = append(grow(dst, 1), congest.Message{From: int32(from), To: int32(to), Payload: payload})
		p = rest
	}
	return dst, nil
}

// Control-frame body codecs.

// encodeBook renders the fleet book — per shard, address string, node span
// and current incarnation — the shared payload of WELCOME and ADMIT.
func encodeBook(addrs []string, spans []congest.Span, incs []uint64) []byte {
	var b []byte
	for i, a := range addrs {
		b = binary.AppendUvarint(b, uint64(len(a)))
		b = append(b, a...)
		b = binary.AppendUvarint(b, uint64(spans[i].Lo))
		b = binary.AppendUvarint(b, uint64(spans[i].Hi))
		b = binary.AppendUvarint(b, incs[i])
	}
	return b
}

func decodeBook(p []byte, k int) ([]netip.AddrPort, []congest.Span, []uint64, error) {
	addrs := make([]netip.AddrPort, k)
	spans := make([]congest.Span, k)
	incs := make([]uint64, k)
	for i := 0; i < k; i++ {
		n, w := binary.Uvarint(p)
		if w <= 0 || n > uint64(len(p)-w) {
			return nil, nil, nil, fmt.Errorf("%w: book addr", errFrame)
		}
		p = p[w:]
		addr, err := net.ResolveUDPAddr("udp", string(p[:n]))
		if err != nil {
			return nil, nil, nil, fmt.Errorf("%w: book addr %q", errFrame, p[:n])
		}
		p = p[n:]
		lo, w := binary.Uvarint(p)
		if w <= 0 || lo >= frameLimit {
			return nil, nil, nil, fmt.Errorf("%w: book span", errFrame)
		}
		p = p[w:]
		hi, w := binary.Uvarint(p)
		if w <= 0 || hi >= frameLimit || hi <= lo {
			return nil, nil, nil, fmt.Errorf("%w: book span", errFrame)
		}
		p = p[w:]
		inc, w := binary.Uvarint(p)
		if w <= 0 || inc == 0 || inc >= frameLimit {
			return nil, nil, nil, fmt.Errorf("%w: book incarnation", errFrame)
		}
		p = p[w:]
		addrs[i] = unmap(addr.AddrPort())
		spans[i] = congest.Span{Lo: int(lo), Hi: int(hi)}
		incs[i] = inc
	}
	if len(p) != 0 {
		return nil, nil, nil, fmt.Errorf("%w: book trailing bytes", errFrame)
	}
	return addrs, spans, incs, nil
}

// decodeAdmit splits an ADMIT body into the assigned incarnation, the
// embedded fleet book and the trailing down list.
func decodeAdmit(p []byte) (inc uint64, book, downList []byte, err error) {
	inc, w := binary.Uvarint(p)
	if w <= 0 || inc < 2 || inc >= frameLimit {
		// A readmission is always at least the second incarnation.
		return 0, nil, nil, fmt.Errorf("%w: admit incarnation", errFrame)
	}
	p = p[w:]
	n, w := binary.Uvarint(p)
	if w <= 0 || n > uint64(len(p)-w) {
		return 0, nil, nil, fmt.Errorf("%w: admit book length", errFrame)
	}
	p = p[w:]
	return inc, p[:n], p[n:], nil
}

// goReadmit is one GO readmit record: a recovered shard's current seat.
type goReadmit struct {
	shard int
	inc   uint64
	addr  netip.AddrPort
}

// decodeGoBody splits a GO body into the full-replacement down set, which
// it writes into down (length k), and the cumulative readmit records.
func decodeGoBody(down []bool, p []byte, k int) ([]goReadmit, error) {
	rest, err := decodeDownListPrefix(down, p, k)
	if err != nil {
		return nil, err
	}
	p = rest
	n, w := binary.Uvarint(p)
	if w <= 0 || n > uint64(k) {
		return nil, fmt.Errorf("%w: go readmit count", errFrame)
	}
	p = p[w:]
	readmits := make([]goReadmit, 0, n)
	for i := uint64(0); i < n; i++ {
		sh, w := binary.Uvarint(p)
		if w <= 0 || sh >= uint64(k) {
			return nil, fmt.Errorf("%w: go readmit shard", errFrame)
		}
		p = p[w:]
		inc, w := binary.Uvarint(p)
		if w <= 0 || inc < 2 || inc >= frameLimit {
			return nil, fmt.Errorf("%w: go readmit incarnation", errFrame)
		}
		p = p[w:]
		alen, w := binary.Uvarint(p)
		if w <= 0 || alen > uint64(len(p)-w) {
			return nil, fmt.Errorf("%w: go readmit addr", errFrame)
		}
		p = p[w:]
		addr, err := net.ResolveUDPAddr("udp", string(p[:alen]))
		if err != nil {
			return nil, fmt.Errorf("%w: go readmit addr %q", errFrame, p[:alen])
		}
		p = p[alen:]
		readmits = append(readmits, goReadmit{shard: int(sh), inc: inc, addr: unmap(addr.AddrPort())})
	}
	if len(p) != 0 {
		return nil, fmt.Errorf("%w: go trailing bytes", errFrame)
	}
	return readmits, nil
}

// encodeDownList renders the cumulative down-shard set carried by GO.
func encodeDownList(down []bool) []byte { return appendDownList(nil, down) }

func appendDownList(b []byte, down []bool) []byte {
	n := 0
	for _, d := range down {
		if d {
			n++
		}
	}
	b = binary.AppendUvarint(b, uint64(n))
	for i, d := range down {
		if d {
			b = binary.AppendUvarint(b, uint64(i))
		}
	}
	return b
}

func decodeDownList(p []byte, k int) ([]bool, error) {
	down := make([]bool, k)
	rest, err := decodeDownListPrefix(down, p, k)
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%w: down list trailing bytes", errFrame)
	}
	return down, nil
}

// decodeDownListPrefix parses a down list at the front of p into down
// (length k), returning the remainder for composite bodies (GO carries
// readmit records after it).
func decodeDownListPrefix(down []bool, p []byte, k int) ([]byte, error) {
	clear(down)
	n, w := binary.Uvarint(p)
	if w <= 0 || n > uint64(k) {
		return nil, fmt.Errorf("%w: down list count", errFrame)
	}
	p = p[w:]
	for i := uint64(0); i < n; i++ {
		id, w := binary.Uvarint(p)
		if w <= 0 || id >= uint64(k) {
			return nil, fmt.Errorf("%w: down list id", errFrame)
		}
		p = p[w:]
		down[id] = true
	}
	return p, nil
}
