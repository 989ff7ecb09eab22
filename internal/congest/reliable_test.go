package congest

import (
	"fmt"
	"testing"
)

// chaosNode is the fault suite's workhorse: it records arrivals like
// recNode and halts at stopAt, but is Recoverable — after an injected
// crash it rejoins with a "*" marker in its log so transcripts pin the
// recovery point.
type chaosNode struct {
	env    *Env
	stopAt int
	log    []string
}

func (c *chaosNode) Init(env *Env) { c.env = env }

func (c *chaosNode) Recover() { c.log = append(c.log, "*") }

func (c *chaosNode) Round(r int, inbox []Message) bool {
	for _, m := range inbox {
		c.log = append(c.log, string(rune('A'+m.From))+string(m.Payload))
	}
	if r >= c.stopAt {
		return true
	}
	b := byte(c.env.Rand().Intn(256))
	for _, v := range c.env.Neighbors() {
		c.env.Send(int(v), []byte{b, byte(r)})
	}
	return false
}

// oneShot sends one payload to a fixed neighbour in round 0, then halts.
// The reliable shim keeps retrying on its behalf: the link layer outlives
// the state machine.
type oneShot struct {
	env *Env
	to  int
	pay []byte
}

func (o *oneShot) Init(env *Env) { o.env = env }
func (o *oneShot) Round(r int, inbox []Message) bool {
	if r == 0 {
		o.env.Send(o.to, o.pay)
	}
	return true
}

// sink records every arrival as "round:payload" until its stop round.
type sink struct {
	stopAt int
	got    []string
}

func (s *sink) Init(*Env) {}
func (s *sink) Round(r int, inbox []Message) bool {
	for _, m := range inbox {
		s.got = append(s.got, fmt.Sprintf("%d:%s", r, m.Payload))
	}
	return r >= s.stopAt
}

// recSink is a sink that survives crash-recovery schedules.
type recSink struct{ sink }

func (r *recSink) Recover() { r.got = append(r.got, "*") }

func shimPair(t *testing.T, stopAt int, cfg Config) (*sink, Stats) {
	t.Helper()
	g := mustGraph(t, 2, [][2]int{{0, 1}})
	s := &sink{stopAt: stopAt}
	stats, err := Run(g, []Node{&oneShot{to: 1, pay: []byte{'X'}}, s}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s, stats
}

// TestReliableShimTransparentWithoutFaults: in a fault-free run the shim
// must not change the protocol-visible execution at all — same transcripts,
// same protocol stats — and its only trace is the separately accounted ack
// traffic.
func TestReliableShimTransparentWithoutFaults(t *testing.T) {
	run := func(rel Reliable) (Stats, [][]string) {
		g := stressGraph(t)
		nodes := make([]Node, g.N())
		recs := make([]*recNode, g.N())
		for i := range nodes {
			recs[i] = &recNode{stopAt: 4 + i/3}
			nodes[i] = recs[i]
		}
		stats, err := Run(g, nodes, Config{Seed: 99, Reliable: rel})
		if err != nil {
			t.Fatal(err)
		}
		logs := make([][]string, len(recs))
		for i, r := range recs {
			logs[i] = r.log
		}
		return stats, logs
	}
	plainStats, plainLogs := run(Reliable{})
	shimStats, shimLogs := run(Reliable{RetryBudget: 3})
	if shimStats.Acks == 0 || shimStats.AckBits == 0 {
		t.Fatalf("shim run produced no ack traffic: %+v", shimStats)
	}
	if shimStats.Retransmits != 0 || shimStats.Dropped != 0 {
		t.Fatalf("fault-free shim run retransmitted or dropped: %+v", shimStats)
	}
	masked := shimStats
	masked.Acks, masked.AckBits = 0, 0
	if masked != plainStats {
		t.Fatalf("protocol stats diverged: shim %+v vs plain %+v", masked, plainStats)
	}
	for i := range plainLogs {
		if fmt.Sprint(plainLogs[i]) != fmt.Sprint(shimLogs[i]) {
			t.Fatalf("node %d transcript diverged under the shim", i)
		}
	}
}

// TestReliableShimHealsBurstLoss: the initial attempt dies in a burst, the
// round-2 retransmission delivers exactly one copy.
func TestReliableShimHealsBurstLoss(t *testing.T) {
	s, stats := shimPair(t, 6, Config{
		Seed:     1,
		Faults:   Faults{Bursts: []RoundRange{{0, 1}}},
		Reliable: Reliable{RetryBudget: 2},
	})
	if fmt.Sprint(s.got) != "[3:X]" {
		t.Fatalf("sink got %v, want exactly one delivery at round 3", s.got)
	}
	if stats.Messages != 1 || stats.Dropped != 1 || stats.Retransmits != 1 || stats.Acks != 1 {
		t.Fatalf("stats = %+v, want 1 message, 1 drop, 1 retransmit, 1 ack", stats)
	}
	if stats.RetransmitBits != 8 {
		t.Fatalf("RetransmitBits = %d, want 8", stats.RetransmitBits)
	}
}

// TestReliableShimBudgetExhaustion: a permanently black wire defeats the
// shim after exactly RetryBudget retransmissions; the backoff schedule
// (attempts at rounds 0, 2, 5) is part of the deterministic contract.
func TestReliableShimBudgetExhaustion(t *testing.T) {
	s, stats := shimPair(t, 10, Config{
		Seed:     1,
		Faults:   Faults{Bursts: []RoundRange{{0, 100}}},
		Reliable: Reliable{RetryBudget: 2},
	})
	if len(s.got) != 0 {
		t.Fatalf("sink got %v through a dead wire", s.got)
	}
	if stats.Retransmits != 2 || stats.Dropped != 3 || stats.Acks != 0 {
		t.Fatalf("stats = %+v, want 2 retransmits, 3 drops, 0 acks", stats)
	}
}

// TestReliableShimAbsorbsDuplication: wire duplication is visible to an
// unprotected protocol (two adjacent inbox copies) but invisible under the
// shim, whose sequence numbering suppresses duplicates by construction.
func TestReliableShimAbsorbsDuplication(t *testing.T) {
	plain, plainStats := shimPair(t, 4, Config{Seed: 1, Faults: Faults{DupProb: 1}})
	if fmt.Sprint(plain.got) != "[1:X 1:X]" {
		t.Fatalf("unprotected sink got %v, want the duplicated pair", plain.got)
	}
	if plainStats.Duplicated != 1 {
		t.Fatalf("Duplicated = %d, want 1", plainStats.Duplicated)
	}
	shim, shimStats := shimPair(t, 4, Config{
		Seed:     1,
		Faults:   Faults{DupProb: 1},
		Reliable: Reliable{RetryBudget: 2},
	})
	if fmt.Sprint(shim.got) != "[1:X]" {
		t.Fatalf("shimmed sink got %v, want a single copy", shim.got)
	}
	if shimStats.Duplicated != 0 {
		t.Fatalf("shimmed Duplicated = %d, want 0", shimStats.Duplicated)
	}
}

// TestReliableShimLostAck: when the data frame lands but its ack dies, the
// redundant retransmission is absorbed by the receive window — the
// protocol still sees exactly one copy, and the second ack settles the
// frame.
func TestReliableShimLostAck(t *testing.T) {
	s, stats := shimPair(t, 6, Config{
		Seed:     1,
		Faults:   Faults{Bursts: []RoundRange{{1, 2}}}, // only the ack transmits in round 1
		Reliable: Reliable{RetryBudget: 2},
	})
	if fmt.Sprint(s.got) != "[1:X]" {
		t.Fatalf("sink got %v, want exactly one delivery", s.got)
	}
	if stats.Retransmits != 1 || stats.Dropped != 1 || stats.Acks != 2 || stats.Duplicated != 0 {
		t.Fatalf("stats = %+v, want 1 retransmit, 1 dropped ack, 2 acks, 0 dups", stats)
	}
}

// TestReliableShimDeliversAfterRecovery is the end-to-end self-healing
// story: the receiver accepts a frame into its inbox, crashes before
// processing it, and recovers with empty state; because a crash wipes the
// node's receive windows (but not its peers' sequence counters), the
// shim's retransmission lands after the rejoin and the message is finally
// processed — exactly once.
func TestReliableShimDeliversAfterRecovery(t *testing.T) {
	g := mustGraph(t, 2, [][2]int{{0, 1}})
	s := &recSink{sink{stopAt: 8}}
	stats, err := Run(g, []Node{&oneShot{to: 1, pay: []byte{'X'}}, s}, Config{
		Seed: 1,
		Faults: Faults{
			CrashAtRound:   map[int]int{1: 1},
			RecoverAtRound: map[int]int{1: 4},
		},
		Reliable: Reliable{RetryBudget: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(s.got) != "[* 6:X]" {
		t.Fatalf("sink got %v, want recovery marker then a single post-recovery delivery", s.got)
	}
	if stats.Crashed != 1 || stats.Recovered != 1 {
		t.Fatalf("stats = %+v, want 1 crash and 1 recovery", stats)
	}
	if stats.Retransmits != 2 || stats.Acks != 1 {
		t.Fatalf("stats = %+v, want 2 retransmits (one into the crash, one after rejoin) and 1 ack", stats)
	}
}

// TestReliableShimDeterministicAcrossWorkers runs the shim under heavy
// loss on the stress graph and holds sequential and parallel runs to
// byte-identical transcripts and stats.
func TestReliableShimDeterministicAcrossWorkers(t *testing.T) {
	run := func(parallel bool, workers int) (Stats, string) {
		g := stressGraph(t)
		nodes := make([]Node, g.N())
		recs := make([]*chaosNode, g.N())
		for i := range nodes {
			recs[i] = &chaosNode{stopAt: 5 + i/4}
			nodes[i] = recs[i]
		}
		stats, err := Run(g, nodes, Config{
			Seed:     7,
			Parallel: parallel,
			Shards:   workers,
			Faults: Faults{
				DropProb:     0.4,
				DelayProb:    0.2,
				MaxDelay:     2,
				CrashAtRound: map[int]int{3: 2},
			},
			Reliable: Reliable{RetryBudget: 3},
		})
		if err != nil {
			t.Fatal(err)
		}
		out := ""
		for _, r := range recs {
			out += fmt.Sprint(r.log) + ";"
		}
		return stats, out
	}
	refStats, refLog := run(false, 0)
	if refStats.Retransmits == 0 {
		t.Fatalf("schedule too tame, no retransmissions: %+v", refStats)
	}
	for _, workers := range []int{1, 2, 8} {
		stats, log := run(true, workers)
		if stats != refStats || log != refLog {
			t.Errorf("workers=%d diverged: %+v vs %+v", workers, stats, refStats)
		}
	}
}
