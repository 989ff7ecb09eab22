package udp

import (
	"encoding/binary"
	"fmt"
	"net"
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

// chunkBuf reassembles one chunked body stream.
type chunkBuf struct {
	parts [][]byte
	have  int
}

func (b *chunkBuf) add(part, parts int, chunk []byte) (complete bool, err error) {
	if b.parts == nil {
		b.parts = make([][]byte, parts)
	}
	if parts != len(b.parts) || part >= len(b.parts) {
		return false, fmt.Errorf("udp: chunk %d/%d against stream of %d", part, parts, len(b.parts))
	}
	if b.parts[part] == nil {
		b.parts[part] = append([]byte(nil), chunk...)
		b.have++
	}
	return b.have == len(b.parts), nil
}

func (b *chunkBuf) bytes() []byte {
	var out []byte
	for _, p := range b.parts {
		out = append(out, p...)
	}
	return out
}

// Shard is the UDP implementation of congest.Transport: one per flnode
// process, speaking DATA frames to peer shards and the barrier control
// protocol to the gateway.
type Shard struct {
	ep  *endpoint
	id  int
	k   int
	cfg Config

	gwAddr net.Addr

	// All fields below are guarded by ep.mu (handlers run with it held).
	welcomed bool
	peers    []net.Addr     // by shard id; nil for self
	spans    []congest.Span // by shard id
	// peerInc is each peer's expected incarnation, the fencing table: zero
	// until WELCOME/ADMIT fills it (so pre-welcome DATA is fenced, not
	// parsed against a nil span table), updated by GO readmit records.
	peerInc []uint64
	maxGo   int    // highest round the gateway has opened; -1 initially
	goDown  []bool // down set from the newest GO (full replace, newest wins)
	// admitRound is the first round this incarnation participates in: 0
	// for an original process, the admission barrier for a rejoiner.
	// Rounds below it (already replayed from the checkpoint) are catch-up:
	// Begin opens instantly, Send drops, Gather returns nothing and sends
	// no READY — the fleet ran those rounds with the shard masked.
	admitRound int
	admitted   bool   // Rejoin only: ADMIT received
	prevDown   []bool // down set reported by the previous Begin, for deltas
	// pendingGo parks a GO that beat WELCOME/ADMIT to the socket (the
	// reliable link dedups but does not order); it is replayed once the
	// fleet book arrives.
	pendingGo *Frame
	done      bool
	gwLost    bool // gateway link exhausted its budget
	gathered  int  // rounds [0, gathered) are closed; late DATA is dropped
	// data[round][fromShard] assembles that peer's batch for the round.
	data map[int]map[int]*chunkBuf
	// complete[round] marks peers whose batch for the round is fully in.
	complete map[int]map[int][]congest.Message
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
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("udp: bind: %w", err)
	}
	var conn net.PacketConn = pc
	if chaos != nil {
		conn = chaos.Wrap(conn)
	}
	cfg = cfg.withDefaults()
	s := &Shard{
		id:       id,
		k:        k,
		cfg:      cfg,
		gwAddr:   gwAddr,
		maxGo:    -1,
		goDown:   make([]bool, k),
		prevDown: make([]bool, k),
		data:     make(map[int]map[int]*chunkBuf),
		complete: make(map[int]map[int][]congest.Message),
	}
	s.ep = newEndpoint(id, conn, cfg.Policy)
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
	s.ep.onDown = func(l *link, e congest.LinkDownError) {
		if l.addr.String() == gwAddr.String() {
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
func (s *Shard) handle(from net.Addr, f Frame) {
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
		if !s.welcomed || f.Round < s.gathered || f.Shard < 0 || f.Shard >= s.k || f.Shard == s.id {
			return // late or nonsensical; the round has moved on
		}
		part, parts, chunk, err := decodeChunkHeader(f.Body)
		if err != nil {
			s.ep.rejected++
			return
		}
		byFrom := s.data[f.Round]
		if byFrom == nil {
			byFrom = make(map[int]*chunkBuf)
			s.data[f.Round] = byFrom
		}
		buf := byFrom[f.Shard]
		if buf == nil {
			buf = &chunkBuf{}
			byFrom[f.Shard] = buf
		}
		full, err := buf.add(part, parts, chunk)
		if err != nil {
			s.ep.rejected++
			return
		}
		if !full {
			return
		}
		msgs, err := decodeBatch(buf.bytes(), f.Shard, s.spans)
		if err != nil {
			s.ep.rejected++
			return
		}
		byRound := s.complete[f.Round]
		if byRound == nil {
			byRound = make(map[int][]congest.Message)
			s.complete[f.Round] = byRound
		}
		byRound[f.Shard] = msgs
		delete(byFrom, f.Shard)
	}
}

// applyGoLocked applies a GO frame's body. Newest GO wins, older ones are
// ignored wholesale: reliable links dedup but do not order, and the down
// set is a full replacement now that shards can come back. The cumulative
// readmit records make the replacement safe — every GO carries every
// recovered peer's current address and incarnation, so no transition can
// be lost to a dropped frame.
func (s *Shard) applyGoLocked(f Frame) {
	down, readmits, err := decodeGoBody(f.Body, s.k)
	if err != nil {
		s.ep.rejected++
		return
	}
	if f.Round <= s.maxGo {
		return
	}
	s.maxGo = f.Round
	s.goDown = down
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
	var downNodes, readmitted []int
	for sh, d := range s.goDown {
		if d {
			for id := s.spans[sh].Lo; id < s.spans[sh].Hi; id++ {
				downNodes = append(downNodes, id)
			}
		}
		if !d && s.prevDown[sh] {
			// Down in the previous barrier, up in this one: the gateway
			// readmitted the shard; report the restored nodes.
			for id := s.spans[sh].Lo; id < s.spans[sh].Hi; id++ {
				readmitted = append(readmitted, id)
			}
		}
		s.prevDown[sh] = d
	}
	return congest.RoundStart{DownNodes: downNodes, Readmitted: readmitted}, nil
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
	batches := make([][]byte, s.k)
	for _, m := range msgs {
		sh := s.owner(int(m.To))
		if sh < 0 {
			return fmt.Errorf("udp: message to node %d outside every span", m.To)
		}
		if sh == s.id || s.goDown[sh] {
			continue
		}
		batches[sh] = appendMessageRecord(batches[sh], int(m.From), int(m.To), m.Payload)
	}
	for sh := 0; sh < s.k; sh++ {
		if sh == s.id || s.goDown[sh] {
			continue
		}
		s.sendChunkedLocked(s.peers[sh], frData, round, batches[sh])
	}
	return nil
}

// sendChunkedLocked splits body into maxChunk pieces (at least one, even
// when empty) and sends them reliably. For DATA the split respects record
// boundaries via the caller building records below maxChunk each; records
// are far smaller than a chunk by the CONGEST bit limit.
func (s *Shard) sendChunkedLocked(addr net.Addr, kind byte, round int, body []byte) {
	parts := (len(body) + maxChunk - 1) / maxChunk
	if parts == 0 {
		parts = 1
	}
	for part := 0; part < parts; part++ {
		lo := part * maxChunk
		hi := min(lo+maxChunk, len(body))
		chunk := appendChunkHeader(nil, part, parts)
		chunk = append(chunk, body[lo:hi]...)
		s.ep.sendReliable(addr, Frame{Kind: kind, Round: round, Body: chunk})
	}
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
// follow.
func (s *Shard) Gather(round int, allHalted bool) ([]congest.Message, error) {
	s.ep.mu.Lock()
	defer s.ep.mu.Unlock()
	if round < s.admitRound {
		// Catch-up round: no peer traffic to collect and no READY — the
		// gateway ran this barrier without us.
		return nil, nil
	}
	deadline := time.Now().Add(s.cfg.GatherTimeout)
	_ = s.ep.waitUntil(deadline, func() bool {
		for sh := 0; sh < s.k; sh++ {
			if sh == s.id || s.goDown[sh] {
				continue
			}
			if _, ok := s.complete[round][sh]; !ok {
				return false
			}
		}
		return true
	})
	var out []congest.Message
	for sh := 0; sh < s.k; sh++ {
		out = append(out, s.complete[round][sh]...)
	}
	// Close the round: anything arriving for it later is stale.
	s.gathered = round + 1
	delete(s.data, round)
	delete(s.complete, round)

	body := []byte{0}
	if allHalted {
		body[0] = 1
	}
	s.ep.sendReliable(s.gwAddr, Frame{Kind: frReady, Round: round, Body: body})
	return out, nil
}

// SendResult ships the shard's encoded fragment to the gateway and blocks
// until every frame is acknowledged (or the link dies / the timeout
// lapses).
func (s *Shard) SendResult(frag []byte) error {
	s.ep.mu.Lock()
	defer s.ep.mu.Unlock()
	s.sendChunkedLocked(s.gwAddr, frResult, 0, frag)
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

// decodeBatch parses a complete DATA body into messages, validating each
// payload against the registered wire kinds (fail closed: one bad record
// rejects the batch, exactly like the simulator shim's framing check) and
// each destination against the receiver's span layout.
func decodeBatch(p []byte, fromShard int, spans []congest.Span) ([]congest.Message, error) {
	var out []congest.Message
	for len(p) > 0 {
		from, to, payload, rest, err := decodeMessageRecord(p)
		if err != nil {
			return nil, err
		}
		if !spans[fromShard].Contains(from) {
			return nil, fmt.Errorf("udp: shard %d forged sender %d", fromShard, from)
		}
		if to >= spans[len(spans)-1].Hi {
			return nil, fmt.Errorf("udp: shard %d sent to node %d outside every span", fromShard, to)
		}
		if _, err := congest.ValidatePayload(payload); err != nil {
			return nil, err
		}
		// Both ids are range-checked above, so they fit the int32 node ids.
		out = append(out, congest.Message{From: int32(from), To: int32(to), Payload: append([]byte(nil), payload...)})
		p = rest
	}
	return out, nil
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

func decodeBook(p []byte, k int) ([]net.Addr, []congest.Span, []uint64, error) {
	addrs := make([]net.Addr, k)
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
		addrs[i] = addr
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
	addr  net.Addr
}

// decodeGoBody splits a GO body into the full-replacement down set and the
// cumulative readmit records.
func decodeGoBody(p []byte, k int) ([]bool, []goReadmit, error) {
	down, rest, err := decodeDownListPrefix(p, k)
	if err != nil {
		return nil, nil, err
	}
	p = rest
	n, w := binary.Uvarint(p)
	if w <= 0 || n > uint64(k) {
		return nil, nil, fmt.Errorf("%w: go readmit count", errFrame)
	}
	p = p[w:]
	readmits := make([]goReadmit, 0, n)
	for i := uint64(0); i < n; i++ {
		sh, w := binary.Uvarint(p)
		if w <= 0 || sh >= uint64(k) {
			return nil, nil, fmt.Errorf("%w: go readmit shard", errFrame)
		}
		p = p[w:]
		inc, w := binary.Uvarint(p)
		if w <= 0 || inc < 2 || inc >= frameLimit {
			return nil, nil, fmt.Errorf("%w: go readmit incarnation", errFrame)
		}
		p = p[w:]
		alen, w := binary.Uvarint(p)
		if w <= 0 || alen > uint64(len(p)-w) {
			return nil, nil, fmt.Errorf("%w: go readmit addr", errFrame)
		}
		p = p[w:]
		addr, err := net.ResolveUDPAddr("udp", string(p[:alen]))
		if err != nil {
			return nil, nil, fmt.Errorf("%w: go readmit addr %q", errFrame, p[:alen])
		}
		p = p[alen:]
		readmits = append(readmits, goReadmit{shard: int(sh), inc: inc, addr: addr})
	}
	if len(p) != 0 {
		return nil, nil, fmt.Errorf("%w: go trailing bytes", errFrame)
	}
	return down, readmits, nil
}

// encodeDownList renders the cumulative down-shard set carried by GO.
func encodeDownList(down []bool) []byte {
	var ids []uint64
	for i, d := range down {
		if d {
			ids = append(ids, uint64(i))
		}
	}
	b := binary.AppendUvarint(nil, uint64(len(ids)))
	for _, id := range ids {
		b = binary.AppendUvarint(b, id)
	}
	return b
}

func decodeDownList(p []byte, k int) ([]bool, error) {
	down, rest, err := decodeDownListPrefix(p, k)
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%w: down list trailing bytes", errFrame)
	}
	return down, nil
}

// decodeDownListPrefix parses a down list at the front of p, returning the
// remainder for composite bodies (GO carries readmit records after it).
func decodeDownListPrefix(p []byte, k int) ([]bool, []byte, error) {
	down := make([]bool, k)
	n, w := binary.Uvarint(p)
	if w <= 0 || n > uint64(k) {
		return nil, nil, fmt.Errorf("%w: down list count", errFrame)
	}
	p = p[w:]
	for i := uint64(0); i < n; i++ {
		id, w := binary.Uvarint(p)
		if w <= 0 || id >= uint64(k) {
			return nil, nil, fmt.Errorf("%w: down list id", errFrame)
		}
		p = p[w:]
		down[id] = true
	}
	return down, p, nil
}
