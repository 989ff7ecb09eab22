package congest

import (
	"errors"
	"fmt"
	"slices"
	"strings"
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
	if _, err := Bipartite(1, 1, func(yield func(i, j int) bool) {
		yield(0, 0)
		yield(0, 0)
	}); err == nil {
		t.Fatal("duplicate bipartite edge should fail")
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
}

// bcastNode sends one payload to all its neighbours each round, either
// with Broadcast or with the equivalent Send loop. The payload's length
// and bytes depend on the node's inbox and private stream, so any
// difference between the two paths spreads through the execution; the
// node overwrites its buffer after staging, so a path that kept the
// caller's bytes instead of copying them would show too.
type bcastNode struct {
	env      *Env
	sendLoop bool
	buf      []byte
}

func (b *bcastNode) Init(env *Env) { b.env = env }

func (b *bcastNode) Round(r int, inbox []Message) bool {
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
	rng := b.env.Rand()
	if rng.Intn(4) == 0 {
		return false // a silent round
	}
	b.buf = b.buf[:0]
	for k := rng.Intn(4); k > 0; k-- {
		b.buf = append(b.buf, acc+byte(rng.Intn(256)))
	}
	if b.sendLoop {
		for _, v := range b.env.Neighbors() {
			b.env.Send(v, b.buf)
		}
	} else {
		b.env.Broadcast(b.buf)
	}
	for k := range b.buf {
		b.buf[k] = 0xff
	}
	return false
}

// TestBroadcastMatchesSendLoop pins Broadcast's one-copy fast path to the
// per-neighbour Send loop it replaces: the same Observer stream — round,
// sender, recipient and payload bytes, in delivery order — on every
// runner, with every delivered payload capacity-clamped so a receiver's
// append cannot write into a shared copy. It also checks that a broadcast
// really stages one copy: the messages of one sender in one round share
// their payload bytes.
func TestBroadcastMatchesSendLoop(t *testing.T) {
	// Node 9 is isolated, so a zero-degree Broadcast is covered too.
	edges := [][2]int{{0, 1}, {0, 2}, {0, 5}, {1, 3}, {2, 3}, {3, 4}, {4, 5}, {5, 6}, {6, 7}, {7, 0}, {8, 2}, {8, 6}}
	run := func(sendLoop bool, cfg Config) []string {
		g := mustGraph(t, 10, edges)
		nodes := make([]Node, g.N())
		for i := range nodes {
			nodes[i] = &bcastNode{sendLoop: sendLoop}
		}
		var stream []string
		cfg.Seed, cfg.BitLimit = 11, 32
		cfg.Observer = func(round int, delivered []Message) {
			first := map[int]*byte{}
			for _, msg := range delivered {
				if cap(msg.Payload) != len(msg.Payload) {
					t.Fatalf("round %d %d->%d: payload cap %d != len %d", round, msg.From, msg.To, cap(msg.Payload), len(msg.Payload))
				}
				stream = append(stream, fmt.Sprintf("%d %d->%d %x", round, msg.From, msg.To, msg.Payload))
				if sendLoop || len(msg.Payload) == 0 {
					continue
				}
				if p, ok := first[msg.From]; !ok {
					first[msg.From] = &msg.Payload[0]
				} else if p != &msg.Payload[0] {
					t.Fatalf("round %d: node %d's broadcast staged more than one payload copy", round, msg.From)
				}
			}
		}
		if _, err := Run(g, nodes, cfg); err != nil {
			t.Fatal(err)
		}
		return stream
	}
	for _, cfg := range []Config{{}, {Dense: true}, {Parallel: true, Shards: 2}} {
		want := run(true, cfg)
		got := run(false, cfg)
		if len(want) == 0 {
			t.Fatal("the Send loop delivered nothing")
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%+v: Broadcast stream differs from the Send loop's:\n got %v\nwant %v", cfg, got, want)
		}
	}
}

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

func TestRunNodeCountMismatch(t *testing.T) {
	g := NewGraph(2)
	if _, err := Run(g, []Node{spinNode{}}, Config{}); err == nil {
		t.Fatal("want node/vertex mismatch error")
	}
}

// recNode records everything it receives and halts at a fixed round,
// optionally sending a random byte to each neighbour first. It drives the
// parallel-vs-sequential equivalence test.
type recNode struct {
	env     *Env
	stopAt  int
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
	for _, v := range rn.env.Neighbors() {
		rn.env.Send(v, []byte{b, byte(r)})
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
