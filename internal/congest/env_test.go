package congest

import (
	"math"
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
	g := circulant(t, n)
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

// circulant is the degree-8 circulant on n nodes that flperf's engine
// workloads run on, finalized.
func circulant(t *testing.T, n int) *Graph {
	t.Helper()
	g := NewGraph(n)
	for u := 0; u < n; u++ {
		for d := 1; d <= 4; d++ {
			if err := g.AddEdge(u, (u+d)%n); err != nil {
				t.Fatal(err)
			}
		}
	}
	g.Finalize()
	return g
}

// TestRunAllocsFlatInRounds holds a run to a fixed number of allocations,
// whatever its length: on the same graph and nodes, a run of 2R rounds
// allocates exactly as much as a run of R. Everything a run allocates is
// laid out before round 0 or grows to a size the traffic of one round
// fixes, so any allocation per round or per message fails it: a goroutine
// and a channel around one call of the round loop, a map per compute walk,
// a heap frame per message, or a shim frame table that never reuses slots.
// The rows are the engine's regimes:
//   - reliable_shim: every node broadcasts under three links that stay
//     down, so the shim retries every frame on them until its budget is
//     spent. Under this deterministic schedule the frames in flight peak
//     at the same count in every round after the first few, so the
//     tables' amortized growth ends at the same size in both runs. Random
//     drops move that peak, and with it a few allocations of growth, from
//     run to run; TestChaosSolveAllocsNearClean bounds that case.
//   - chatter: every node broadcasts every round on the sequential runner
//     (flperf's engine_dense traffic).
//   - pulse: every 100th node broadcasts every round and the others sleep
//     until the halt round, woken by each delivery (engine_sparse's shape).
//   - chatter_2_shards: the chatter row on the 2-shard pool. Its count
//     moves by one between otherwise equal runs (in 1 of 200 runs, and 1
//     of 15 under the race detector, with GOMAXPROCS 1 as AllocsPerRun
//     sets it), so the row allows a difference of 2: 1/8 of an allocation
//     per added round, where one allocation per round adds 16.
func TestRunAllocsFlatInRounds(t *testing.T) {
	always := RoundRange{0, 1 << 20}
	chatter := func(_, rounds int) Node { return &chatterNode{rounds: rounds} }
	for _, tc := range []struct {
		name   string
		n      int // 0: the stress graph, else a circulant on n nodes
		node   func(id, rounds int) Node
		cfg    Config
		rounds int
		slack  float64 // the largest difference the row allows
	}{
		{name: "reliable_shim", node: chatter, rounds: 32, cfg: Config{Seed: 3,
			Faults:   Faults{LinkDowns: []LinkDown{{0, 2, always}, {7, 15, always}, {11, 12, always}}},
			Reliable: Reliable{RetryBudget: 2}}},
		{name: "chatter", n: 1024, node: chatter, rounds: 16, cfg: Config{Seed: 1}},
		{name: "pulse", n: 1 << 14, rounds: 16, cfg: Config{Seed: 1},
			node: func(id, rounds int) Node { return &pulseNode{hot: id%100 == 0, rounds: rounds} }},
		{name: "chatter_2_shards", n: 1024, node: chatter, rounds: 16, slack: 2,
			cfg: Config{Seed: 1, Parallel: true, Shards: 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := stressGraph(t)
			if tc.n > 0 {
				g = circulant(t, tc.n)
			}
			allocs := func(rounds int) float64 {
				nodes := make([]Node, g.N())
				for i := range nodes {
					nodes[i] = tc.node(i, rounds)
				}
				// A collection inside a measured run can allocate (a
				// process's first one starts the runtime's mark workers),
				// so collect first.
				runtime.GC()
				return testing.AllocsPerRun(3, func() {
					st, err := Run(g, nodes, tc.cfg)
					if err != nil || st.Rounds != rounds+1 || st.Messages == 0 ||
						tc.cfg.Reliable.RetryBudget > 0 && st.Retransmits == 0 {
						t.Fatalf("run: %+v, %v", st, err)
					}
				})
			}
			short, long := allocs(tc.rounds), allocs(2*tc.rounds)
			if math.Abs(long-short) > tc.slack {
				t.Fatalf("allocations per run: %v over %d rounds, %v over %d, want a difference of at most %v",
					short, tc.rounds, long, 2*tc.rounds, tc.slack)
			}
		})
	}
}
