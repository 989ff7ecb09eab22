package congest

import (
	"crypto/sha256"
	"encoding/hex"
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

// pinNode is the node of the shim's execution pins. It logs every arrival
// as round, sender and payload bytes, and sends each neighbour a LINK-ACK
// frame (so an intact frame passes the framing check that corruption and
// byzantine schedules arm) with a random body, by Broadcast in every other
// round. A long node pads its frames to 24 bytes, past what a frame keeps
// inline.
type pinNode struct {
	env    *Env
	stopAt int
	long   bool
	log    []byte
}

func (p *pinNode) Init(env *Env) { p.env = env }

func (p *pinNode) Recover() { p.log = append(p.log, '*') }

func (p *pinNode) Round(r int, inbox []Message) bool {
	for _, m := range inbox {
		p.log = fmt.Appendf(p.log, "%d:%d:%x;", r, m.From, m.Payload)
	}
	if r >= p.stopAt {
		return true
	}
	pay := []byte{kindAck, byte(p.env.Rand().Intn(256)), byte(r)}
	if p.long {
		pay = append(pay, make([]byte, 21)...)
		pay[23] = byte(p.env.ID())
	}
	if (p.env.ID()+r)%2 == 0 {
		p.env.Broadcast(pay)
		return false
	}
	for _, v := range p.env.Neighbors() {
		p.env.Send(int(v), pay)
	}
	return false
}

// TestReliableShimExecutionsPinned pins five shim executions on the stress
// graph, one per fault family, to SHA-256 digests of their Stats and every
// node's delivery log. The digests were computed before the shim kept its
// link state in per-edge arrays and its frames in reused slots, so any
// change to what the shim delivers, when, or in which RNG order fails here.
func TestReliableShimExecutionsPinned(t *testing.T) {
	cases := []struct {
		name   string
		faults Faults
		long   bool
		want   string
	}{
		{"drops_delays", Faults{DropProb: 0.3, DelayProb: 0.2, MaxDelay: 3}, true,
			"53f032b9ec9abce0869c97344d7a8a077834046e7faab482df4175a2dc36a17e"},
		{"duplicates", Faults{DropProb: 0.1, DupProb: 0.5}, false,
			"a9a8daa6017fa37043a1479c9120af4100acd41856aeeced9ad6d8d575d9bb15"},
		{"corruption", Faults{DropProb: 0.1, CorruptProb: 0.4, CorruptUntilRound: 100}, false,
			"5b687444c6f10c8724e8fec68f7598ab0d018a1df94b69a37f617c3e6ce9932e"},
		{"crash_recovery", Faults{DropProb: 0.2, CrashAtRound: map[int]int{3: 2, 9: 4}, RecoverAtRound: map[int]int{3: 6}}, false,
			"1e77bacab29d2e8d33fa3939e9901d7f4855f16f6ee405c5f4470ea8d748b169"},
		{"byzantine", Faults{DropProb: 0.1, ByzantineFromRound: map[int]int{4: 1, 11: 3}}, false,
			"ef911ad7cd5702d145fff4e2b8c09c65494e36e63f00f76e0f2744047482e385"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := stressGraph(t)
			nodes := make([]Node, g.N())
			recs := make([]*pinNode, g.N())
			for i := range nodes {
				recs[i] = &pinNode{stopAt: 20 + i%5, long: tc.long && i%2 == 0}
				nodes[i] = recs[i]
			}
			stats, err := Run(g, nodes, Config{Seed: 5, MaxRounds: 80, Faults: tc.faults, Reliable: Reliable{RetryBudget: 3}})
			if err != nil {
				t.Fatal(err)
			}
			if stats.Retransmits == 0 || stats.LinkDowns == 0 {
				t.Fatalf("schedule too tame, no retransmissions or no spent budgets: %+v", stats)
			}
			h := sha256.New()
			fmt.Fprintf(h, "%+v\n", stats)
			for _, r := range recs {
				h.Write(r.log)
				h.Write([]byte{'\n'})
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
				t.Errorf("execution digest %s, want %s; stats %+v", got, tc.want, stats)
			}
		})
	}
}
