package udp

import (
	"encoding/binary"
	"fmt"
	"net"
	"net/netip"
	"time"

	"dfl/internal/congest"
)

// Gateway sequences the round barriers of a deployment and is the single
// authority for down declarations and shard incarnations: a shard that
// misses a barrier (or whose control link exhausts its retry budget) is
// declared down, the surviving shards learn it in the next GO frame, and
// the run continues without it — the degradation ladder's "node masked"
// rung. A masked shard is not gone for good: a recovered process may send
// REJOIN (carrying the round its checkpoint resumes at), and the gateway
// readmits it at the next round barrier — bumping its incarnation so the
// dead predecessor is fenced out, pointing survivors at its new address via
// GO's readmit records, and letting traffic resume as if the outage had
// been a burst of loss. A rejoin that arrives more than AdmitWindow rounds
// after the down declaration is refused and the shard stays masked. After
// global halt the gateway collects each survivor's result fragment.
type Gateway struct {
	ep    *endpoint
	k     int
	spans []congest.Span
	cfg   Config

	// OnRound, when set, observes every opened round with the cumulative
	// down set; the soak harness uses it to schedule churn. Called without
	// locks held.
	OnRound func(round int, down []bool)

	// Guarded by ep.mu.
	addrs  []netip.AddrPort // per shard, learned from HELLO (updated on readmission)
	hellos int
	down   []bool
	// round is the barrier currently open; readyGot/readyHalted record
	// which live shards have reported it. READY for any other round — late
	// stragglers racing their own down-declaration, or forged rounds — is
	// rejected and counted, never stored (the map this replaced grew
	// without bound on exactly that traffic).
	round       int
	readyGot    []bool
	readyHalted []bool
	// inc is each shard's current incarnation (starts at 1, bumped on every
	// readmission); downRound records when a shard was declared down (-1
	// while up) and admitRound its latest readmission (-1 if never).
	inc        []uint64
	downRound  []int
	admitRound []int
	// pending holds rejoin requests awaiting the next barrier, by shard.
	pending  map[int]*rejoinReq
	results  []stream // per shard, RESULT assembly
	resultOK []bool
	goBody   []byte // GO bodies are rendered here, reused round after round
}

// rejoinReq is one shard's recovery offer: where it listens now and the
// round its checkpoint replay resumes at.
type rejoinReq struct {
	addr        netip.AddrPort
	resumeRound int
}

// Result is a finished deployment: the raw fragment bytes each surviving
// shard returned (nil for down shards — their nodes are masked by
// assembly) and the fate of the fleet.
type Result struct {
	Fragments [][]byte
	Down      []bool
	Rounds    int
	// AdmitRounds records, per shard, the round at which it was last
	// readmitted after a crash (-1 = never needed to rejoin).
	AdmitRounds []int
	// Incarnations is each shard's final incarnation number (1 = original
	// process finished the run).
	Incarnations []uint64
	// Fenced counts frames the gateway dropped for a stale incarnation —
	// nonzero means a zombie predecessor really was alive and really was
	// kept out. Rejected counts malformed or out-of-window frames.
	Fenced   int64
	Rejected int64
}

// NewGateway binds the gateway socket on addr ("127.0.0.1:0" for an
// ephemeral port). spans is the node-id partition, one per shard.
func NewGateway(addr string, spans []congest.Span, cfg Config) (*Gateway, error) {
	k := len(spans)
	if k == 0 {
		return nil, fmt.Errorf("udp: gateway needs at least one shard span")
	}
	laddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("udp: gateway bind: %w", err)
	}
	conn, err := net.ListenUDP("udp", laddr)
	if err != nil {
		return nil, fmt.Errorf("udp: gateway bind: %w", err)
	}
	cfg = cfg.withDefaults()
	g := &Gateway{
		k:           k,
		spans:       spans,
		cfg:         cfg,
		addrs:       make([]netip.AddrPort, k),
		down:        make([]bool, k),
		readyGot:    make([]bool, k),
		readyHalted: make([]bool, k),
		inc:         make([]uint64, k),
		downRound:   make([]int, k),
		admitRound:  make([]int, k),
		pending:     make(map[int]*rejoinReq),
		results:     make([]stream, k),
		resultOK:    make([]bool, k),
	}
	for sh := 0; sh < k; sh++ {
		g.inc[sh] = 1
		g.downRound[sh] = -1
		g.admitRound[sh] = -1
	}
	g.ep = newEndpoint(k, conn, nil, cfg.Policy)
	g.ep.inc = 1 // the gateway is never replaced; its incarnation is constant
	g.ep.incOf = func(shard int) uint64 {
		if shard >= 0 && shard < k {
			return g.inc[shard]
		}
		return 0
	}
	g.ep.handler = g.handle
	g.ep.onDown = func(l *link, e congest.LinkDownError) {
		// Only the link to the shard's *current* address condemns it: after
		// a readmission the old incarnation's link may still be timing out,
		// and its death must not re-mask the recovered successor.
		if l.shard >= 0 && l.shard < k && l.addr == g.addrs[l.shard] && !g.down[l.shard] {
			g.down[l.shard] = true
			g.downRound[l.shard] = g.round
		}
	}
	g.ep.serve()
	return g, nil
}

// Addr is the bound gateway address for shards to dial.
func (g *Gateway) Addr() string { return g.ep.conn.LocalAddr().String() }

// Close releases the socket.
func (g *Gateway) Close() { g.ep.close() }

func (g *Gateway) handle(from netip.AddrPort, f Frame) {
	sh := f.Shard
	if sh < 0 || sh >= g.k {
		g.ep.rejected++
		return
	}
	switch f.Kind {
	case frHello:
		if !g.addrs[sh].IsValid() {
			g.addrs[sh] = from
			g.hellos++
		}
	case frReady:
		// Live-window check: only the currently open barrier accepts
		// reports, and only from shards still considered up — a READY
		// racing its own down-declaration lost that race.
		if len(f.Body) != 1 || f.Body[0] > 1 || f.Round != g.round || g.down[sh] || g.readyGot[sh] {
			g.ep.rejected++
			return
		}
		g.readyGot[sh] = true
		g.readyHalted[sh] = f.Body[0] == 1
	case frRejoin:
		if len(f.Body) != 0 {
			g.ep.rejected++
			return
		}
		// Recovered process offering to resume at f.Round. Admission is
		// decided at the next barrier (Run owns the round state machine);
		// last offer wins if the process retried from a new socket.
		g.pending[sh] = &rejoinReq{addr: from, resumeRound: f.Round}
	case frResult:
		part, parts, chunk, err := decodeChunkHeader(f.Body)
		if err != nil {
			g.ep.rejected++
			return
		}
		if err := g.results[sh].add(part, parts, chunk); err != nil {
			g.ep.rejected++
			return
		}
		g.resultOK[sh] = g.results[sh].complete()
	}
}

// admitLocked processes pending rejoins at the top of round. A shard is
// admitted only if it is currently down (a rejoin racing its own death
// stays pending until the barrier declares the old process dead) and its
// down-window is within cfg.AdmitWindow rounds; a rejoin that missed the
// window is dropped and the shard stays masked forever — the ladder's
// terminal rung. Admission bumps the incarnation (fencing the zombie),
// rebinds the shard's address, and sends ADMIT with everything the
// recovered process needs to take its seat: its new incarnation, the fleet
// book (addresses, spans, peer incarnations) and the current down set.
func (g *Gateway) admitLocked(round int) {
	for sh, req := range g.pending {
		if !g.down[sh] {
			continue // not yet declared down; revisit next barrier
		}
		if round-g.downRound[sh] > g.cfg.AdmitWindow {
			delete(g.pending, sh)
			continue
		}
		delete(g.pending, sh)
		g.inc[sh]++
		g.down[sh] = false
		g.downRound[sh] = -1
		g.addrs[sh] = req.addr
		g.admitRound[sh] = round
		g.ep.sendReliable(req.addr, Frame{Kind: frAdmit, Round: round,
			Body: g.encodeAdmitLocked(sh)})
	}
}

func (g *Gateway) encodeAdmitLocked(sh int) []byte {
	body := binary.AppendUvarint(nil, g.inc[sh])
	book := g.bookLocked()
	body = binary.AppendUvarint(body, uint64(len(book)))
	body = append(body, book...)
	return append(body, encodeDownList(g.down)...)
}

// bookLocked renders the current fleet address book (addresses, spans,
// incarnations), the shared payload of WELCOME and ADMIT.
func (g *Gateway) bookLocked() []byte {
	addrs := make([]string, g.k)
	for i, a := range g.addrs {
		addrs[i] = a.String()
	}
	return encodeBook(addrs, g.spans, g.inc)
}

// goBodyLocked renders a GO body: the down set plus a cumulative readmit
// record (shard, incarnation, address) for every shard past its first
// incarnation. Carrying all of them in every GO makes the records
// idempotent under loss and reordering — a survivor that missed the GO
// announcing a readmission learns the new address and incarnation from any
// later one. The body is valid until the next call; sending copies it.
func (g *Gateway) goBodyLocked() []byte {
	body := appendDownList(g.goBody[:0], g.down)
	var n uint64
	for sh := 0; sh < g.k; sh++ {
		if g.inc[sh] > 1 {
			n++
		}
	}
	body = binary.AppendUvarint(body, n)
	for sh := 0; sh < g.k; sh++ {
		if g.inc[sh] <= 1 {
			continue
		}
		body = binary.AppendUvarint(body, uint64(sh))
		body = binary.AppendUvarint(body, g.inc[sh])
		a := g.addrs[sh].String()
		body = binary.AppendUvarint(body, uint64(len(a)))
		body = append(body, a...)
	}
	g.goBody = body
	return body
}

// Run drives the deployment: assemble the fleet, sequence rounds until
// every survivor reports halted (or maxRounds trips), then collect
// fragments. It returns the surviving fragments and the down set; the
// caller assembles and certifies them (core.Assemble).
func (g *Gateway) Run(maxRounds int) (*Result, error) {
	g.ep.mu.Lock()
	// Fleet assembly: every shard must say hello before the run starts; a
	// fleet that cannot fully form is a deployment error, not degradation.
	err := g.ep.waitUntil(time.Now().Add(g.cfg.HelloTimeout), func() bool { return g.hellos == g.k })
	if err != nil {
		g.ep.mu.Unlock()
		return nil, fmt.Errorf("udp: fleet assembly: %d/%d shards reported: %w", g.hellos, g.k, err)
	}
	welcome := g.bookLocked()
	for sh := 0; sh < g.k; sh++ {
		g.ep.sendReliable(g.addrs[sh], Frame{Kind: frWelcome, Body: welcome})
	}

	round := 0
	for ; round < maxRounds; round++ {
		g.round = round
		for sh := 0; sh < g.k; sh++ {
			g.readyGot[sh] = false
			g.readyHalted[sh] = false
		}
		g.admitLocked(round)
		goBody := g.goBodyLocked()
		live := 0
		for sh := 0; sh < g.k; sh++ {
			if g.down[sh] {
				continue
			}
			live++
			g.ep.sendReliable(g.addrs[sh], Frame{Kind: frGo, Round: round, Body: goBody})
		}
		if live == 0 {
			g.ep.mu.Unlock()
			return nil, fmt.Errorf("udp: every shard is down at round %d", round)
		}
		if g.OnRound != nil {
			down := append([]bool(nil), g.down...)
			g.ep.mu.Unlock()
			g.OnRound(round, down)
			g.ep.mu.Lock()
		}
		// Barrier: wait for READY(round) from every live shard; stragglers
		// past the timeout (or dead control links) are declared down.
		barrier := func() bool {
			for sh := 0; sh < g.k; sh++ {
				if !g.down[sh] && !g.readyGot[sh] {
					return false
				}
			}
			return true
		}
		if err := g.ep.waitUntil(time.Now().Add(g.cfg.BarrierTimeout), barrier); err != nil {
			for sh := 0; sh < g.k; sh++ {
				if !g.down[sh] && !g.readyGot[sh] {
					g.down[sh] = true
					g.downRound[sh] = round
				}
			}
		}
		allHalted := true
		anyLive := false
		for sh := 0; sh < g.k; sh++ {
			if g.down[sh] {
				continue
			}
			anyLive = true
			if !g.readyHalted[sh] {
				allHalted = false
			}
		}
		if !anyLive {
			g.ep.mu.Unlock()
			return nil, fmt.Errorf("udp: every shard is down at round %d", round)
		}
		// A pending rejoin for a down shard holds the halt open: the
		// recovered shard must be given its barrier seat (or its window
		// must lapse) before the run can be declared globally complete. A
		// pending entry for a shard that is still up is a forgery or a
		// duplicate of an already-admitted offer — it must not block halt.
		rejoining := false
		for sh := range g.pending {
			if g.down[sh] && round-g.downRound[sh] <= g.cfg.AdmitWindow {
				rejoining = true
			}
		}
		if allHalted && !rejoining {
			break
		}
	}
	if round >= maxRounds {
		g.ep.mu.Unlock()
		return nil, fmt.Errorf("udp: round budget %d exhausted without global halt", maxRounds)
	}

	// Termination: tell survivors to ship their fragments.
	for sh := 0; sh < g.k; sh++ {
		if !g.down[sh] {
			g.ep.sendReliable(g.addrs[sh], Frame{Kind: frDone, Round: round})
		}
	}
	_ = g.ep.waitUntil(time.Now().Add(g.cfg.ResultTimeout), func() bool {
		for sh := 0; sh < g.k; sh++ {
			if !g.down[sh] && !g.resultOK[sh] {
				return false
			}
		}
		return true
	})
	res := &Result{
		Fragments:    make([][]byte, g.k),
		Down:         append([]bool(nil), g.down...),
		Rounds:       round + 1,
		AdmitRounds:  append([]int(nil), g.admitRound...),
		Incarnations: append([]uint64(nil), g.inc...),
		Fenced:       g.ep.fenced,
		Rejected:     g.ep.rejected,
	}
	for sh := 0; sh < g.k; sh++ {
		if g.resultOK[sh] {
			r := &g.results[sh]
			res.Fragments[sh] = r.appendBody(make([]byte, 0, len(r.data)))
		} else {
			// No fragment in time: the shard is down as far as assembly is
			// concerned, whatever the barrier bookkeeping said.
			res.Down[sh] = true
		}
	}
	g.ep.mu.Unlock()
	return res, nil
}
