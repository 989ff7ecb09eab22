package congest

import (
	"math/rand"
	"testing"
)

// chatterNode sends a fixed payload to every neighbour every round for a
// fixed number of rounds, ignoring whatever arrives. Its traffic is a pure
// function of the round number, which makes it the measuring stick for the
// accounting contract: adversarial interference (corruption, forgery,
// rejection) must never leak into the protocol's own Messages/Bits. The
// payload borrows the engine's one registered kind, LINK-ACK, so an intact
// frame passes the link-layer framing check like any protocol's.
type chatterNode struct {
	env    *Env
	rounds int
}

func (c *chatterNode) Init(env *Env) { c.env = env }

func (c *chatterNode) Round(r int, inbox []Message) bool {
	if r >= c.rounds {
		return true
	}
	c.env.Broadcast([]byte{kindAck, byte(r)})
	return false
}

func chatterRun(t *testing.T, f Faults) Stats {
	t.Helper()
	g := mustGraph(t, 4, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}})
	nodes := make([]Node, 4)
	for i := range nodes {
		nodes[i] = &chatterNode{rounds: 10}
	}
	stats, err := Run(g, nodes, Config{Seed: 7, MaxRounds: 20, Faults: f})
	if err != nil {
		t.Fatal(err)
	}
	return stats
}

// TestCorruptionAccounting pins satellite contract #2: corrupted frames are
// counted in their own Stats field, and the protocol's Messages/Bits are
// byte-for-byte what the honest run produced — corruption mutates copies on
// the wire after send-side accounting, so message counts stay comparable
// across fault schedules.
func TestCorruptionAccounting(t *testing.T) {
	honest := chatterRun(t, Faults{})
	if honest.Corrupted != 0 || honest.Forged != 0 || honest.Rejected != 0 {
		t.Fatalf("honest run touched adversarial counters: %+v", honest)
	}
	corrupt := chatterRun(t, Faults{CorruptProb: 0.5, CorruptUntilRound: 100})
	if corrupt.Corrupted == 0 {
		t.Fatal("CorruptProb=0.5 corrupted nothing")
	}
	if corrupt.Messages != honest.Messages || corrupt.Bits != honest.Bits {
		t.Fatalf("corruption leaked into protocol accounting: %d/%d msgs, %d/%d bits",
			corrupt.Messages, honest.Messages, corrupt.Bits, honest.Bits)
	}
}

// TestForgeryAccounting pins the same contract for the byzantine path: a
// byzantine node's rewrites and injections land in Forged, while
// Messages/Bits stay exactly the honest protocol's send-side count.
func TestForgeryAccounting(t *testing.T) {
	honest := chatterRun(t, Faults{})
	byz := chatterRun(t, Faults{ByzantineFromRound: map[int]int{1: 0}})
	if byz.Forged == 0 {
		t.Fatal("byzantine schedule forged nothing")
	}
	if byz.Messages != honest.Messages || byz.Bits != honest.Bits {
		t.Fatalf("forgery leaked into protocol accounting: %d/%d msgs, %d/%d bits",
			byz.Messages, honest.Messages, byz.Bits, honest.Bits)
	}
}

// TestCorruptionDeterminism holds corruption and byzantine forgery to
// invariant I5: the same schedule must produce identical stats across the
// sequential runner and worker pools of 1, 2, and 8.
func TestCorruptionDeterminism(t *testing.T) {
	faults := Faults{
		CorruptProb:        0.4,
		CorruptUntilRound:  100,
		DupProb:            0.3,
		ByzantineFromRound: map[int]int{0: 2, 2: 5},
	}
	run := func(parallel bool, workers int) Stats {
		g := mustGraph(t, 4, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}})
		nodes := make([]Node, 4)
		for i := range nodes {
			nodes[i] = &chatterNode{rounds: 10}
		}
		stats, err := Run(g, nodes, Config{
			Seed: 7, MaxRounds: 20, Parallel: parallel, Shards: workers, Faults: faults,
		})
		if err != nil {
			t.Fatal(err)
		}
		return stats
	}
	ref := run(false, 0)
	if ref.Corrupted == 0 || ref.Forged == 0 {
		t.Fatalf("schedule too tame to test determinism: %+v", ref)
	}
	for _, workers := range []int{1, 2, 8} {
		if got := run(true, workers); got != ref {
			t.Fatalf("workers=%d: stats diverged:\n%+v\n%+v", workers, got, ref)
		}
	}
}

// TestReliableShimRejectsCorruptFrames arms the link-layer framing check:
// under the reliable shim with corruption active, mangled frames must be
// discarded unacknowledged (counted in Rejected) and repaired by
// retransmission — the run's protocol accounting still matches the honest
// run's.
func TestReliableShimRejectsCorruptFrames(t *testing.T) {
	g := mustGraph(t, 4, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}})
	run := func(f Faults) Stats {
		nodes := make([]Node, 4)
		for i := range nodes {
			nodes[i] = &chatterNode{rounds: 8}
		}
		stats, err := Run(g, nodes, Config{
			Seed: 11, MaxRounds: 60, Faults: f, Reliable: Reliable{RetryBudget: 4},
		})
		if err != nil {
			t.Fatal(err)
		}
		return stats
	}
	honest := run(Faults{})
	corrupt := run(Faults{CorruptProb: 0.6, CorruptUntilRound: 4})
	if corrupt.Rejected == 0 {
		t.Fatal("corrupting 60% of shim frames rejected nothing")
	}
	if corrupt.Retransmits == 0 {
		t.Fatal("rejected frames were never retransmitted")
	}
	if corrupt.Messages != honest.Messages || corrupt.Bits != honest.Bits || corrupt.Acks != honest.Acks {
		t.Fatalf("corruption leaked into protocol accounting: %d/%d msgs, %d/%d bits, %d/%d acks",
			corrupt.Messages, honest.Messages, corrupt.Bits, honest.Bits, corrupt.Acks, honest.Acks)
	}
}

// TestForgerHookAndClipping pins the Forger contract: the hook sees the
// staged payload, its output replaces it on that link only, a nil return
// suppresses the transmission, and oversized forgeries are clipped to the
// engine's bit limit before they reach any inbox.
func TestForgerHookAndClipping(t *testing.T) {
	g := mustGraph(t, 2, [][2]int{{0, 1}})
	huge := make([]byte, 1024)
	var sawOrig bool
	faults := Faults{
		ByzantineFromRound: map[int]int{0: 0},
		Forger: func(rng *rand.Rand, round, from, to int, orig []byte) []byte {
			if orig != nil {
				sawOrig = true
			}
			return huge
		},
	}
	var got []byte
	recv := &captureNode{onMsg: func(m Message) { got = m.Payload }}
	nodes := []Node{&chatterNode{rounds: 3}, recv}
	stats, err := Run(g, nodes, Config{Seed: 1, MaxRounds: 10, BitLimit: 64, Faults: faults})
	if err != nil {
		t.Fatal(err)
	}
	if !sawOrig {
		t.Fatal("forger never saw a staged payload")
	}
	if stats.Forged == 0 {
		t.Fatal("forger output not counted")
	}
	if got == nil || len(got)*8 > 64 {
		t.Fatalf("forged payload not clipped to the bit limit: %d bytes", len(got))
	}
}

// captureNode records delivered messages and halts when the engine does.
type captureNode struct {
	env   *Env
	onMsg func(Message)
}

func (c *captureNode) Init(env *Env) { c.env = env }

func (c *captureNode) Round(r int, inbox []Message) bool {
	for _, m := range inbox {
		c.onMsg(m)
	}
	return r > 4
}
