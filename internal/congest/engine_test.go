package congest

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func mustGraph(t *testing.T, n int, edges [][2]int) *Graph {
	t.Helper()
	g := NewGraph(n)
	for _, e := range edges {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatalf("AddEdge(%v): %v", e, err)
		}
	}
	return g
}

func TestGraphBasics(t *testing.T) {
	g := mustGraph(t, 4, [][2]int{{0, 1}, {1, 2}, {2, 3}})
	if g.N() != 4 || g.EdgeCount() != 3 {
		t.Fatalf("N=%d E=%d", g.N(), g.EdgeCount())
	}
	if !g.HasEdge(1, 2) || !g.HasEdge(2, 1) {
		t.Error("HasEdge should be symmetric")
	}
	if g.HasEdge(0, 3) || g.HasEdge(-1, 0) || g.HasEdge(9, 0) {
		t.Error("HasEdge false positives")
	}
	if g.Degree(1) != 2 || g.Degree(0) != 1 {
		t.Errorf("degrees: %d %d", g.Degree(1), g.Degree(0))
	}
}

func TestGraphAddEdgeErrors(t *testing.T) {
	g := NewGraph(3)
	tests := []struct {
		name    string
		u, v    int
		wantErr string
	}{
		{"out of range", 0, 9, "out of range"},
		{"negative", -1, 0, "out of range"},
		{"self loop", 1, 1, "self-loop"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := g.AddEdge(tt.u, tt.v); err == nil || !strings.Contains(err.Error(), tt.wantErr) {
				t.Fatalf("AddEdge(%d,%d) = %v, want %q", tt.u, tt.v, err, tt.wantErr)
			}
		})
	}
	if err := g.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(1, 0); err != nil {
		t.Fatalf("AddEdge is O(1) now; duplicates surface at FinalizeChecked, got %v", err)
	}
	if err := g.FinalizeChecked(); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("FinalizeChecked = %v, want duplicate error", err)
	}
	// Even the checked freeze leaves a usable deduplicated graph behind.
	if g.EdgeCount() != 1 || !g.HasEdge(0, 1) {
		t.Fatalf("post-freeze graph: E=%d HasEdge(0,1)=%v", g.EdgeCount(), g.HasEdge(0, 1))
	}
	if err := g.AddEdge(0, 2); err == nil || !strings.Contains(err.Error(), "frozen") {
		t.Fatalf("AddEdge on frozen graph = %v, want frozen error", err)
	}
}

// TestBipartite checks a small graph, and that Bipartite rejects a
// duplicate pair, a pair out of range, a second walk that does not replay
// the first, and a node count beyond the int32 id space; the last before
// it walks the edges or allocates the rows.
func TestBipartite(t *testing.T) {
	g, err := Bipartite(2, 3, func(yield func(i, j int) bool) {
		yield(0, 0)
		yield(0, 1)
		yield(1, 2)
	})
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 5 || g.EdgeCount() != 3 {
		t.Fatalf("N=%d E=%d", g.N(), g.EdgeCount())
	}
	if !g.HasEdge(0, 2) || !g.HasEdge(1, 4) {
		t.Error("expected facility-client edges missing")
	}
	walks := 0
	cases := []struct {
		name  string
		m, nc int
		edges func(yield func(int, int) bool)
		want  string
	}{
		{"duplicate", 2, 3, func(yield func(int, int) bool) {
			_ = yield(0, 1) && yield(1, 2) && yield(0, 1)
		}, "duplicate edge (0,3)"},
		{"facility out of range", 2, 3, func(yield func(int, int) bool) {
			_ = yield(0, 1) && yield(2, 0)
		}, "out of range"},
		{"client out of range", 2, 3, func(yield func(int, int) bool) {
			_ = yield(0, -1)
		}, "out of range"},
		{"second walk yields more", 2, 3, func(yield func(int, int) bool) {
			walks++
			_ = yield(0, 1) && (walks%2 == 1 || yield(1, 1))
		}, "does not replay"},
		{"second walk yields fewer", 2, 3, func(yield func(int, int) bool) {
			walks++
			_ = yield(0, 1) && (walks%2 == 0 || yield(1, 1))
		}, "does not replay"},
		{"second walk moves a pair", 2, 3, func(yield func(int, int) bool) {
			walks++
			_ = yield(0, 1) && yield(1, walks%2)
		}, "does not replay"},
		{"beyond int32 ids", math.MaxInt32, 1, func(func(int, int) bool) {
			t.Fatal("edges walked for a graph beyond the int32 id space")
		}, "int32 id space"},
		{"int overflow", math.MaxInt, 1, func(func(int, int) bool) {
			t.Fatal("edges walked for a graph beyond the int32 id space")
		}, "int32 id space"},
	}
	for _, c := range cases {
		walks = 0
		g, err := Bipartite(c.m, c.nc, c.edges)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Bipartite = (%v, %v), want an error containing %q", c.name, g, err, c.want)
		}
	}
}

// pingNode floods a token: node 0 starts with it; every node that has seen
// the token broadcasts it once, then halts after quiet rounds. It verifies
// basic delivery semantics.
type pingNode struct {
	env     *Env
	haveTok bool
	sent    bool
	gotAt   int
}

func (p *pingNode) Init(env *Env) {
	p.env = env
	p.gotAt = -1
	if env.ID() == 0 {
		p.haveTok = true
		p.gotAt = 0
	}
}

func (p *pingNode) Round(r int, inbox []Message) bool {
	if !p.haveTok {
		for _, m := range inbox {
			if len(m.Payload) == 1 && m.Payload[0] == 'T' {
				p.haveTok = true
				p.gotAt = r
			}
		}
	}
	if p.haveTok && !p.sent {
		p.env.Broadcast([]byte{'T'})
		p.sent = true
		return false
	}
	return p.sent || r > 10
}

func TestRunFloodsPath(t *testing.T) {
	g := mustGraph(t, 4, [][2]int{{0, 1}, {1, 2}, {2, 3}})
	nodes := make([]Node, 4)
	pings := make([]*pingNode, 4)
	for i := range nodes {
		pings[i] = &pingNode{}
		nodes[i] = pings[i]
	}
	stats, err := Run(g, nodes, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Token travels one hop per round: node i receives it at round i.
	for i, p := range pings {
		if p.gotAt != i {
			t.Errorf("node %d got token at round %d, want %d", i, p.gotAt, i)
		}
	}
	if stats.Messages == 0 || stats.Bits != stats.Messages*8 {
		t.Errorf("stats = %+v", stats)
	}
	if stats.MaxMessageBits != 8 {
		t.Errorf("MaxMessageBits = %d, want 8", stats.MaxMessageBits)
	}
}

// errNode misbehaves in a configurable way to exercise engine policing.
type errNode struct {
	env  *Env
	mode string
}

func (e *errNode) Init(env *Env) { e.env = env }

func (e *errNode) Round(r int, inbox []Message) bool {
	switch e.mode {
	case "broadcast":
		e.env.Broadcast([]byte{1})
	case "nonNeighbor":
		e.env.Send(2, []byte{1}) // node 0 is not adjacent to 2
	case "tooBig":
		e.env.Send(1, make([]byte, 64))
	case "double":
		e.env.Send(1, []byte{1})
		e.env.Send(1, []byte{2})
	case "sendThenBroadcast":
		e.env.Send(1, []byte{1})
		e.env.Broadcast([]byte{2})
	case "broadcastTwice":
		e.env.Broadcast([]byte{1})
		e.env.Broadcast([]byte{2})
	case "broadcastTooBig":
		e.env.Broadcast(make([]byte, 64))
	case "ascendingRepeat":
		// Slots 0, 1, 2 in order, then the last one again.
		e.env.Send(1, []byte{1})
		e.env.Send(3, []byte{2})
		e.env.Send(4, []byte{3})
		e.env.Send(4, []byte{4})
	case "nonNeighborAfterSlot":
		e.env.Send(1, []byte{1})
		e.env.Send(2, []byte{2})
	case "descending":
		e.env.Send(4, []byte{1})
		e.env.Send(3, []byte{2})
		e.env.Send(1, []byte{3})
	}
	return true
}

func TestRunPolicesSends(t *testing.T) {
	tests := []struct {
		mode    string
		wantErr string
	}{
		{"nonNeighbor", "non-neighbour"},
		{"tooBig", "exceeds limit"},
		{"double", "sent twice"},
		{"sendThenBroadcast", "sent twice"},
		{"broadcastTwice", "sent twice"},
		{"broadcastTooBig", "exceeds limit"},
		// Send tries the slot after its previous send before searching;
		// the shortcut must police exactly like the search.
		{"ascendingRepeat", "sent twice"},
		{"nonNeighborAfterSlot", "non-neighbour"},
		{"descending", ""},
	}
	for _, tt := range tests {
		t.Run(tt.mode, func(t *testing.T) {
			// Node 0's neighbours are 1, 3 and 4; node 2 is not one.
			g := mustGraph(t, 5, [][2]int{{0, 1}, {1, 2}, {0, 3}, {0, 4}})
			nodes := []Node{&errNode{mode: tt.mode}, &errNode{}, &errNode{}, &errNode{}, &errNode{}}
			st, err := Run(g, nodes, Config{BitLimit: 16})
			if tt.wantErr == "" {
				if err != nil || st.Messages != 3 {
					t.Fatalf("Run = %+v, %v; want 3 messages and no error", st, err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tt.wantErr) {
				t.Fatalf("Run = %v, want %q", err, tt.wantErr)
			}
		})
	}
	// The once-per-neighbour check's own cases, on a graph whose largest
	// degree belongs to the last id: hub 5 is adjacent to 0..4, and 0 and
	// 1 to each other. Each case scripts the hub, with node 0 sending to
	// both its neighbours first; every other node halts in round 0.
	hubCases := []struct {
		name    string
		hub     func(env *Env, r int) bool
		wantErr string
		msgs    int64
	}{
		// The hub's first send is to its highest slot, after a node of
		// smaller degree has used the span's scratch.
		{"maxDegreeDescending", func(env *Env, r int) bool {
			for v := 4; v >= 0; v-- {
				env.Send(v, []byte{byte(v)})
			}
			return true
		}, "", 7},
		{"repeatAfterHigher", func(env *Env, r int) bool {
			env.Send(1, []byte{1})
			env.Send(3, []byte{3})
			env.Send(1, []byte{1})
			return true
		}, "sent twice", 0},
		{"broadcastThenSend", func(env *Env, r int) bool {
			env.Broadcast([]byte{1})
			env.Send(2, []byte{2})
			return true
		}, "sent twice", 0},
		// Round 0 stamps slots 0 and 1 of a cleared scratch with
		// generation 1 and leaves the generation at its largest value, so
		// the hub's next call wraps it. Trusting the wrapped 0 would match
		// slots 2..4, which were never written; restarting at 1 without a
		// clear would match the stale stamps of slots 0 and 1.
		{"wrap", func(env *Env, r int) bool {
			if r == 0 {
				clear(env.c.sent)
				env.c.gen = 1
				env.Send(0, []byte{0})
				env.Send(1, []byte{1})
				env.c.gen = math.MaxUint32
				return false
			}
			for v := 0; v <= 4; v++ {
				env.Send(v, []byte{byte(v)})
			}
			return true
		}, "", 9},
	}
	for _, tt := range hubCases {
		for _, cfg := range []Config{{BitLimit: 16}, {BitLimit: 16, Parallel: true, Shards: 2}} {
			t.Run(fmt.Sprintf("%s/parallel=%v", tt.name, cfg.Parallel), func(t *testing.T) {
				g := mustGraph(t, 6, [][2]int{{0, 1}, {0, 5}, {1, 5}, {2, 5}, {3, 5}, {4, 5}})
				nodes := make([]Node, g.N())
				for i := range nodes {
					nodes[i] = &scriptNode{}
				}
				nodes[0] = &scriptNode{script: func(env *Env, r int) bool {
					env.Send(5, []byte{5})
					env.Send(1, []byte{1})
					return true
				}}
				nodes[5] = &scriptNode{script: tt.hub}
				st, err := Run(g, nodes, cfg)
				if tt.wantErr == "" {
					if err != nil || st.Messages != tt.msgs {
						t.Fatalf("Run = %+v, %v; want %d messages and no error", st, err, tt.msgs)
					}
					return
				}
				if err == nil || !strings.Contains(err.Error(), tt.wantErr) {
					t.Fatalf("Run = %v, want %q", err, tt.wantErr)
				}
			})
		}
	}
}

// scriptNode runs its script in every Round call and halts when the
// script says so; without a script it halts in round 0.
type scriptNode struct {
	env    *Env
	script func(env *Env, r int) bool
}

func (s *scriptNode) Init(env *Env) { s.env = env }

func (s *scriptNode) Round(r int, inbox []Message) bool {
	return s.script == nil || s.script(s.env, r)
}

// bcastNode sends one payload to all its neighbours each round, either
// with Broadcast or with the equivalent Send loop, and logs every inbox it
// sees. The payload's length and bytes depend on the node's inbox and
// private stream, so any difference between the two paths spreads through
// the execution; the node overwrites its buffer after staging, so a path
// that kept the caller's bytes instead of copying them would show too.
type bcastNode struct {
	env      *Env
	sendLoop bool
	// violate, when set, names the CONGEST violation the node commits in
	// round 3 around its broadcast (see TestBroadcastMatchesSendLoop).
	violate string
	buf     []byte
	log     []string
}

func (b *bcastNode) Init(env *Env) { b.env = env }

func (b *bcastNode) Round(r int, inbox []Message) bool {
	b.log = append(b.log, fmt.Sprintf("%d:%v", r, inbox))
	if r >= 8 {
		return true
	}
	acc := byte(r)
	for _, m := range inbox {
		acc = acc*31 + byte(m.From)
		for _, c := range m.Payload {
			acc ^= c
		}
	}
	violate := r == 3 && b.violate != ""
	rng := b.env.Rand()
	if rng.Intn(4) == 0 && !violate {
		return false // a silent round
	}
	b.buf = b.buf[:0]
	for k := rng.Intn(4); k > 0; k-- {
		b.buf = append(b.buf, acc+byte(rng.Intn(256)))
	}
	nbrs := b.env.Neighbors()
	if violate {
		switch b.violate {
		case "broadcastAfterSend":
			b.env.Send(int(nbrs[len(nbrs)-1]), b.buf)
		case "oversized":
			b.buf = append(b.buf, make([]byte, 8)...)
		}
	}
	if b.sendLoop {
		for _, v := range nbrs {
			b.env.Send(int(v), b.buf)
		}
	} else {
		b.env.Broadcast(b.buf)
	}
	if violate && b.violate == "sendAfterBroadcast" {
		b.env.Send(int(nbrs[0]), b.buf)
	}
	for k := range b.buf {
		b.buf[k] = 0xff
	}
	return false
}

// TestBroadcastMatchesSendLoop pins Broadcast, which stages one record
// that the merge expands, to the per-neighbour Send loop it stands for:
// the same Stats, the same inbox at every node in every round, and the
// same Observer stream — round, sender, recipient and payload bytes, in
// delivery order — on every runner and on the runDense reference (which
// observes nothing), under drops, duplicates and delays,
// under the reliable shim, and with byzantine senders, whose rewrites are
// drawn per recipient. Where no fault copies payloads, it also checks that
// a broadcast really stages one copy: the messages of one sender in one
// round share their payload bytes, each capacity-clamped so a receiver's
// append cannot write into it. The violations — a Send after a Broadcast,
// a Broadcast after a Send, an oversized Broadcast — must abort with the
// same error and the same partial Stats. RunShard over a ChanNetwork runs
// the fault-free case only: it observes nothing, and its Stats are per
// shard.
func TestBroadcastMatchesSendLoop(t *testing.T) {
	// Node 9 is isolated, so a zero-degree Broadcast is covered too.
	edges := [][2]int{{0, 1}, {0, 2}, {0, 5}, {1, 3}, {2, 3}, {3, 4}, {4, 5}, {5, 6}, {6, 7}, {7, 0}, {8, 2}, {8, 6}}
	type result struct {
		stats  Stats
		err    string
		stream []string
		logs   [][]string
	}
	newNodes := func(n int, sendLoop bool, violate string) ([]Node, []*bcastNode) {
		nodes, bn := make([]Node, n), make([]*bcastNode, n)
		for i := range nodes {
			bn[i] = &bcastNode{sendLoop: sendLoop}
			nodes[i] = bn[i]
		}
		bn[0].violate = violate
		return nodes, bn
	}
	logsOf := func(bn []*bcastNode) [][]string {
		logs := make([][]string, len(bn))
		for i, b := range bn {
			logs[i] = b.log
		}
		return logs
	}
	run := func(sendLoop bool, violate string, cfg Config, shared, dense bool) result {
		g := mustGraph(t, 10, edges)
		nodes, bn := newNodes(g.N(), sendLoop, violate)
		var res result
		cfg.Seed, cfg.BitLimit = 11, 32
		if dense {
			st, err := runDense(g, nodes, cfg)
			res.stats, res.logs = st, logsOf(bn)
			if err != nil {
				res.err = err.Error()
			}
			return res
		}
		cfg.Observer = func(round int, delivered []Message) {
			first := map[int]*byte{}
			for _, msg := range delivered {
				res.stream = append(res.stream, fmt.Sprintf("%d %d->%d %x", round, msg.From, msg.To, msg.Payload))
				if !shared || len(msg.Payload) == 0 {
					continue
				}
				if cap(msg.Payload) != len(msg.Payload) {
					t.Fatalf("round %d %d->%d: payload cap %d != len %d", round, msg.From, msg.To, cap(msg.Payload), len(msg.Payload))
				}
				if sendLoop {
					continue
				}
				if p, ok := first[int(msg.From)]; !ok {
					first[int(msg.From)] = &msg.Payload[0]
				} else if p != &msg.Payload[0] {
					t.Fatalf("round %d: node %d's broadcast staged more than one payload copy", round, msg.From)
				}
			}
		}
		st, err := Run(g, nodes, cfg)
		res.stats, res.logs = st, logsOf(bn)
		if err != nil {
			res.err = err.Error()
		}
		return res
	}
	runShard := func(t *testing.T, sendLoop bool) result {
		g := mustGraph(t, 10, edges)
		g.Finalize()
		nodes, bn := newNodes(g.N(), sendLoop, "")
		spans := SplitSpans(g.N(), 3)
		net, err := NewChanNetwork(g.N(), spans)
		if err != nil {
			t.Fatal(err)
		}
		stats := make([]Stats, len(spans))
		errs := make([]error, len(spans))
		var wg sync.WaitGroup
		for si, sp := range spans {
			wg.Add(1)
			go func() {
				defer wg.Done()
				stats[si], errs[si] = RunShard(g, nodes, sp, Config{Seed: 11, BitLimit: 32}, net.Shard(si))
				if errs[si] != nil {
					net.Abort(errs[si])
				}
			}()
		}
		wg.Wait()
		var res result
		for si := range spans {
			if errs[si] != nil {
				t.Fatal(errs[si])
			}
			res.stream = append(res.stream, fmt.Sprintf("shard %d: %+v", si, stats[si]))
		}
		res.logs = logsOf(bn)
		return res
	}
	compare := func(t *testing.T, got, want result) {
		t.Helper()
		if got.err != want.err {
			t.Fatalf("Broadcast run error %q, Send loop's %q", got.err, want.err)
		}
		if got.stats != want.stats {
			t.Fatalf("Broadcast run Stats %+v, Send loop's %+v", got.stats, want.stats)
		}
		if !slices.Equal(got.stream, want.stream) {
			t.Fatalf("Broadcast stream differs from the Send loop's:\n got %v\nwant %v", got.stream, want.stream)
		}
		for v := range want.logs {
			if !slices.Equal(got.logs[v], want.logs[v]) {
				t.Fatalf("node %d: Broadcast run inboxes %v, Send loop's %v", v, got.logs[v], want.logs[v])
			}
		}
	}
	lossy := Faults{DropProb: 0.2, DupProb: 0.3, DelayProb: 0.2, MaxDelay: 2}
	byz := Faults{ByzantineFromRound: map[int]int{0: 2, 3: 0, 8: 1}}
	runners := []struct {
		name string
		cfg  Config
		// faulted reports that a fault-free run's Stats show the faults at
		// work; nil for the runners without faults, where no fault copies a
		// payload and the shared-copy checks apply.
		faulted func(Stats) bool
	}{
		{"sequential", Config{}, nil},
		// The runDense reference, which expands and accounts a broadcast
		// record with none of the engine's merge code; it observes nothing.
		{"dense", Config{}, nil},
		{"parallel", Config{Parallel: true, Shards: 2}, nil},
		{"faults", Config{Faults: lossy}, lossyStats},
		{"faults/parallel", Config{Parallel: true, Shards: 2, Faults: lossy}, lossyStats},
		{"reliable", Config{Faults: Faults{DropProb: 0.3}, Reliable: Reliable{RetryBudget: 2}}, func(s Stats) bool { return s.Retransmits > 0 && s.Acks > 0 }},
		{"byzantine", Config{Faults: byz}, func(s Stats) bool { return s.Forged > 0 }},
		{"byzantine/parallel", Config{Parallel: true, Shards: 2, Faults: byz}, func(s Stats) bool { return s.Forged > 0 }},
	}
	violations := map[string]string{"": "", "sendAfterBroadcast": "sent twice", "broadcastAfterSend": "sent twice", "oversized": "exceeds limit"}
	for _, violate := range []string{"", "sendAfterBroadcast", "broadcastAfterSend", "oversized"} {
		for _, r := range runners {
			t.Run(fmt.Sprintf("%s/violation=%s", r.name, violate), func(t *testing.T) {
				dense := r.name == "dense"
				want := run(true, violate, r.cfg, r.faulted == nil, dense)
				got := run(false, violate, r.cfg, r.faulted == nil, dense)
				switch {
				case violate == "" && (want.err != "" || want.stats.Messages == 0 || r.faulted != nil && !r.faulted(want.stats)):
					t.Fatalf("the Send loop run: %+v, %q; want messages, the faults at work and no error", want.stats, want.err)
				case !strings.Contains(want.err, violations[violate]):
					t.Fatalf("the Send loop run ended with %q, want %q", want.err, violations[violate])
				}
				compare(t, got, want)
			})
		}
	}
	t.Run("RunShard", func(t *testing.T) {
		compare(t, runShard(t, false), runShard(t, true))
	})
}

// lossyStats reports that drops, duplicates and delays all happened.
func lossyStats(s Stats) bool { return s.Dropped > 0 && s.Duplicated > 0 && s.Delayed > 0 }

// spinNode never halts.
type spinNode struct{}

func (spinNode) Init(*Env)                 {}
func (spinNode) Round(int, []Message) bool { return false }

func TestRunRoundLimit(t *testing.T) {
	g := NewGraph(1)
	_, err := Run(g, []Node{spinNode{}}, Config{MaxRounds: 10})
	if !errors.Is(err, ErrRoundLimit) {
		t.Fatalf("err = %v, want ErrRoundLimit", err)
	}
}

// haltNode halts in its first round.
type haltNode struct{}

func (haltNode) Init(*Env)                 {}
func (haltNode) Round(int, []Message) bool { return true }

// TestRoundBudgetLimit checks that the runners reject a MaxRounds beyond
// maxRoundBudget, whose rounds the frontier's uint32 wake slot could not
// name, and accept the largest one it can.
func TestRoundBudgetLimit(t *testing.T) {
	g := NewGraph(1)
	g.Finalize()
	for _, rounds := range []int{maxRoundBudget + 1, math.MaxUint32, 1 << 40} {
		if _, err := Run(g, []Node{haltNode{}}, Config{MaxRounds: rounds}); err == nil || !strings.Contains(err.Error(), "exceeds the budget limit") {
			t.Errorf("Run with MaxRounds %d: err = %v, want the budget limit error", rounds, err)
		}
		if _, err := RunShard(g, []Node{haltNode{}}, Span{0, 1}, Config{MaxRounds: rounds}, nil); err == nil || !strings.Contains(err.Error(), "exceeds the budget limit") {
			t.Errorf("RunShard with MaxRounds %d: err = %v, want the budget limit error", rounds, err)
		}
	}
	st, err := Run(g, []Node{haltNode{}}, Config{MaxRounds: maxRoundBudget})
	if err != nil || st.Rounds != 1 {
		t.Fatalf("Run with MaxRounds %d = (%+v, %v), want one round", maxRoundBudget, st, err)
	}
}

func TestRunNodeCountMismatch(t *testing.T) {
	g := NewGraph(2)
	if _, err := Run(g, []Node{spinNode{}}, Config{}); err == nil {
		t.Fatal("want node/vertex mismatch error")
	}
}

// recNode records everything it receives and halts at a fixed round,
// sending a random byte to each neighbour in every round before that. With
// bcast it stages the byte as one Broadcast record in the rounds where its
// id plus the round is even, so sends and broadcasts interleave. It drives
// the parallel-vs-sequential equivalence tests.
type recNode struct {
	env     *Env
	stopAt  int
	bcast   bool
	log     []string
	rndByte byte
}

func (rn *recNode) Init(env *Env) { rn.env = env }

func (rn *recNode) Round(r int, inbox []Message) bool {
	for _, m := range inbox {
		rn.log = append(rn.log, string(rune('A'+m.From))+string(m.Payload))
	}
	if r >= rn.stopAt {
		return true
	}
	b := byte(rn.env.Rand().Intn(256))
	rn.rndByte = b
	if rn.bcast && (rn.env.ID()+r)%2 == 0 {
		rn.env.Broadcast([]byte{b, byte(r)})
		return false
	}
	for _, v := range rn.env.Neighbors() {
		rn.env.Send(int(v), []byte{b, byte(r)})
	}
	return false
}

func runRec(t *testing.T, parallel bool, workers int) ([]Stats, [][]string) {
	t.Helper()
	g := mustGraph(t, 6, [][2]int{{0, 1}, {0, 2}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}})
	nodes := make([]Node, 6)
	recs := make([]*recNode, 6)
	for i := range nodes {
		recs[i] = &recNode{stopAt: 5}
		nodes[i] = recs[i]
	}
	stats, err := Run(g, nodes, Config{Seed: 42, Parallel: parallel, Shards: workers})
	if err != nil {
		t.Fatal(err)
	}
	logs := make([][]string, 6)
	for i, r := range recs {
		logs[i] = r.log
	}
	return []Stats{stats}, logs
}

func TestParallelMatchesSequential(t *testing.T) {
	seqStats, seqLogs := runRec(t, false, 0)
	for _, workers := range []int{1, 2, 3, 8} {
		parStats, parLogs := runRec(t, true, workers)
		if seqStats[0] != parStats[0] {
			t.Fatalf("workers=%d stats differ: %+v vs %+v", workers, seqStats[0], parStats[0])
		}
		for id := range seqLogs {
			if len(seqLogs[id]) != len(parLogs[id]) {
				t.Fatalf("workers=%d node %d log length %d vs %d", workers, id, len(seqLogs[id]), len(parLogs[id]))
			}
			for k := range seqLogs[id] {
				if seqLogs[id][k] != parLogs[id][k] {
					t.Fatalf("workers=%d node %d entry %d: %q vs %q", workers, id, k, seqLogs[id][k], parLogs[id][k])
				}
			}
		}
	}
}

// TestParallelEquivalenceProperty repeats the equivalence check over random
// seeds via testing/quick.
func TestParallelEquivalenceProperty(t *testing.T) {
	run := func(seed int64, parallel bool) (Stats, [][]string, error) {
		g := mustGraph(t, 5, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}, {0, 2}})
		nodes := make([]Node, 5)
		recs := make([]*recNode, 5)
		for i := range nodes {
			recs[i] = &recNode{stopAt: 4}
			nodes[i] = recs[i]
		}
		st, err := Run(g, nodes, Config{Seed: seed, Parallel: parallel, Shards: 4})
		logs := make([][]string, 5)
		for i, r := range recs {
			logs[i] = r.log
		}
		return st, logs, err
	}
	f := func(seed int64) bool {
		s1, l1, err1 := run(seed, false)
		s2, l2, err2 := run(seed, true)
		if err1 != nil || err2 != nil || s1 != s2 {
			return false
		}
		for i := range l1 {
			if len(l1[i]) != len(l2[i]) {
				return false
			}
			for k := range l1[i] {
				if l1[i][k] != l2[i][k] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestObserverSeesAllMessages(t *testing.T) {
	g := mustGraph(t, 2, [][2]int{{0, 1}})
	nodes := []Node{&recNode{stopAt: 3}, &recNode{stopAt: 3}}
	var observed int64
	stats, err := Run(g, nodes, Config{Seed: 7, Observer: func(round int, delivered []Message) {
		observed += int64(len(delivered))
	}})
	if err != nil {
		t.Fatal(err)
	}
	if observed != stats.Messages {
		t.Fatalf("observer saw %d messages, stats counted %d", observed, stats.Messages)
	}
}

func TestSuggestedBitLimit(t *testing.T) {
	tests := []struct{ n, min int }{
		{2, 64}, {1024, 64}, {1 << 20, 80}, {1 << 22, 88},
	}
	for _, tt := range tests {
		got := SuggestedBitLimit(tt.n)
		if got < tt.min || got%8 != 0 {
			t.Errorf("SuggestedBitLimit(%d) = %d, want >= %d and byte aligned", tt.n, got, tt.min)
		}
	}
}

func TestNodeSeedDistinct(t *testing.T) {
	seen := map[int64]bool{}
	for id := 0; id < 1000; id++ {
		s := nodeSeed(12345, id)
		if seen[s] {
			t.Fatalf("nodeSeed collision at id %d", id)
		}
		seen[s] = true
	}
	if nodeSeed(1, 0) == nodeSeed(2, 0) {
		t.Error("different run seeds should give different node seeds")
	}
}

func TestMessageBits(t *testing.T) {
	m := Message{Payload: []byte{1, 2, 3}}
	if m.Bits() != 24 {
		t.Fatalf("Bits = %d", m.Bits())
	}
	// The ack encoder's output fits its declared ceiling at both ends of
	// the value range; the second call is handed the first's buffer, which
	// it must reset rather than append to.
	var buf []byte
	for _, v := range []uint64{0, math.MaxUint64} {
		buf = EncodeKindUvarint(buf, kindAck, v)
		if got := (Message{Payload: buf}).Bits(); got > MaxKindVarintBits {
			t.Fatalf("EncodeKindUvarint(%d) = %d bits, bound %d", v, got, MaxKindVarintBits)
		}
	}
	// Every registered kind fits the same ceiling.
	for _, spec := range payloadRegistry {
		if spec.MaxBits > MaxKindVarintBits {
			t.Fatalf("registered kind %s declares %d bits, above MaxKindVarintBits %d", spec.Name, spec.MaxBits, MaxKindVarintBits)
		}
	}
}

// lateSender halts on its very first round but sends a final message; the
// engine must still deliver and count it exactly once.
type lateSender struct{ env *Env }

func (l *lateSender) Init(env *Env) { l.env = env }
func (l *lateSender) Round(r int, inbox []Message) bool {
	if r == 0 {
		l.env.Send(1, []byte{9})
	}
	return true
}

type countReceiver struct {
	got int
}

func (c *countReceiver) Init(*Env) {}
func (c *countReceiver) Round(r int, inbox []Message) bool {
	c.got += len(inbox)
	return r >= 2
}

func TestFinalMessageFromHaltingNodeCountedOnce(t *testing.T) {
	g := mustGraph(t, 2, [][2]int{{0, 1}})
	recv := &countReceiver{}
	stats, err := Run(g, []Node{&lateSender{}, recv}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Messages != 1 {
		t.Fatalf("Messages = %d, want exactly 1", stats.Messages)
	}
	if recv.got != 1 {
		t.Fatalf("receiver got %d messages, want 1", recv.got)
	}
}
