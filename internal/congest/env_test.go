package congest

import (
	"runtime"
	"strings"
	"testing"
)

// strayNode sends to node 1 from wherever its hooks say: from Init, from
// Recover, or, in its Round call, on another node's Env.
type strayNode struct {
	env               *Env
	inInit, inRecover bool
	broadcast         bool
	other             **Env // in its Round calls, sends on this Env instead
	rounds            int
}

func (s *strayNode) send(env *Env) {
	if s.broadcast {
		env.Broadcast([]byte{1})
		return
	}
	env.Send(1, []byte{1})
}

func (s *strayNode) Init(env *Env) {
	s.env = env
	if s.inInit {
		s.send(env)
	}
}

func (s *strayNode) Recover() {
	if s.inRecover {
		s.send(s.env)
	}
}

func (s *strayNode) Round(r int, inbox []Message) bool {
	if s.other != nil && r == 0 {
		s.send(*s.other)
	}
	return r >= s.rounds
}

// TestSendOutsideRoundIsViolation: a node sends only from its own Round
// call. A Send or Broadcast from Init or Recover would be staged where no
// drain reads it, and one on another node's Env would land in the running
// node's window, so each is a send violation that ends the run with an
// error naming the Env's node. Init is checked under the sequential runner, the
// 2-shard pool and RunShard; Recover needs a fault schedule, which every
// runner that takes one runs sequentially, pool configuration included.
func TestSendOutsideRoundIsViolation(t *testing.T) {
	const want = "node 0 sent outside its own Round call"
	pair := func() (*Graph, []Node) {
		g := mustGraph(t, 2, [][2]int{{0, 1}})
		g.Finalize()
		return g, []Node{&strayNode{rounds: 3}, &strayNode{rounds: 3}}
	}
	check := func(t *testing.T, label string, st Stats, err error, rounds int) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("%s: err = %v, want %q", label, err, want)
		}
		if st.Rounds != rounds || st.Messages != 0 {
			t.Fatalf("%s: stats %+v, want %d rounds and no message", label, st, rounds)
		}
	}
	for _, bcast := range []bool{false, true} {
		for _, cfg := range []Config{{}, {Parallel: true, Shards: 2}} {
			g, nodes := pair()
			nodes[0].(*strayNode).inInit, nodes[0].(*strayNode).broadcast = true, bcast
			st, err := Run(g, nodes, cfg)
			check(t, "Init under Run", st, err, 0)
		}
		g, nodes := pair()
		nodes[0].(*strayNode).inInit, nodes[0].(*strayNode).broadcast = true, bcast
		net, err := NewChanNetwork(2, SplitSpans(2, 2))
		if err != nil {
			t.Fatal(err)
		}
		st, err := RunShard(g, nodes, Span{0, 1}, Config{}, net.Shard(0))
		check(t, "Init under RunShard", st, err, 0)

		faults := Faults{CrashAtRound: map[int]int{0: 1}, RecoverAtRound: map[int]int{0: 2}}
		for _, cfg := range []Config{{Faults: faults}, {Faults: faults, Parallel: true, Shards: 2}} {
			g, nodes := pair()
			nodes[0].(*strayNode).inRecover, nodes[0].(*strayNode).broadcast = true, bcast
			st, err := Run(g, nodes, cfg)
			check(t, "Recover under Run", st, err, 2)
		}

		// Node 1's Round call sends on node 0's Env: the violation is the
		// call's, and the run ends with round 0.
		g, nodes = pair()
		stray := nodes[1].(*strayNode)
		stray.other, stray.broadcast = &nodes[0].(*strayNode).env, bcast
		st, err = Run(g, nodes, Config{})
		check(t, "another node's Env", st, err, 1)
	}
}

// pulseNode is the engine_sparse protocol: a hot node broadcasts two bytes
// every round until the halt round, and the others sleep until then.
type pulseNode struct {
	env    *Env
	hot    bool
	rounds int
}

func (n *pulseNode) Init(env *Env) { n.env = env }

func (n *pulseNode) Round(r int, _ []Message) bool {
	if r >= n.rounds {
		return true
	}
	if n.hot {
		n.env.Broadcast([]byte{byte(r), byte(r >> 8)})
		return false
	}
	n.env.SleepUntil(n.rounds)
	return false
}

// maxRunBytesPerNode bounds what one Run of TestRunBytesPerNode allocates
// per node. The run measures 89 bytes (93 under the race detector): the
// 24-byte Env, a 24-byte inbox header and a halted flag; the frontier's
// 16-byte sleep slot and its 4-byte active and woken entries; and 16 bytes
// of the span's record and inbox chunks, two 512 KiB blocks that do not
// grow with n. Before the send state moved to the span's cursor it read
// about 233: a 136-byte Env and 4 bytes of send stamps per directed edge,
// 32 per node on this degree-8 graph. So a per-node or per-edge field
// added back fails the bound.
const maxRunBytesPerNode = 105

// TestRunBytesPerNode measures, by runtime.MemStats.TotalAlloc, the bytes
// one Run of the pulse protocol allocates on a 2^16-node degree-8
// circulant with every 1000th node hot, which is engine_sparse's shape at
// a sixteenth of its size. Nearly all of it is per-node state laid out
// before round 0, so this is the engine's memory per node.
func TestRunBytesPerNode(t *testing.T) {
	const n, stride, rounds = 1 << 16, 1000, 8
	g := NewGraph(n)
	for u := 0; u < n; u++ {
		for d := 1; d <= 4; d++ {
			if err := g.AddEdge(u, (u+d)%n); err != nil {
				t.Fatal(err)
			}
		}
	}
	g.Finalize()
	nodes := make([]Node, n)
	for i := range nodes {
		nodes[i] = &pulseNode{hot: i%stride == 0, rounds: rounds}
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	st, err := Run(g, nodes, Config{Seed: 1})
	runtime.ReadMemStats(&after)
	if err != nil || st.Rounds != rounds+1 {
		t.Fatalf("Run = %+v, %v", st, err)
	}
	perNode := float64(after.TotalAlloc-before.TotalAlloc) / n
	t.Logf("%.1f bytes allocated per node", perNode)
	if perNode > maxRunBytesPerNode {
		t.Fatalf("Run allocated %.1f bytes per node, bound %d", perNode, maxRunBytesPerNode)
	}
}
