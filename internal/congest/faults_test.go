package congest

import (
	"math/rand"
	"strings"
	"testing"
)

func TestFaultsActive(t *testing.T) {
	tests := []struct {
		name string
		f    Faults
		want bool
	}{
		{"zero", Faults{}, false},
		{"drop", Faults{DropProb: 0.1}, true},
		{"crash", Faults{CrashAtRound: map[int]int{0: 1}}, true},
		{"recover", Faults{RecoverAtRound: map[int]int{0: 2}}, true},
		{"dup only", Faults{DupProb: 0.3}, true},
		{"delay only", Faults{DelayProb: 0.2, MaxDelay: 2}, true},
		{"link down only", Faults{LinkDowns: []LinkDown{{U: 0, V: 1, RoundRange: RoundRange{0, 3}}}}, true},
		{"partition only", Faults{Partitions: []Partition{{Side: []int{0}, RoundRange: RoundRange{1, 2}}}}, true},
		{"burst only", Faults{Bursts: []RoundRange{{0, 1}}}, true},
	}
	for _, tt := range tests {
		if got := tt.f.active(); got != tt.want {
			t.Errorf("%s: active() = %v, want %v", tt.name, got, tt.want)
		}
	}
}

// TestShouldDropUntilRound pins the boundary semantics: rounds strictly
// before DropUntilRound are lossy, everything from that round on is
// reliable, and 0 means lossy forever.
func TestShouldDropUntilRound(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := Faults{DropProb: 1, DropUntilRound: 5}
	for round := 0; round < 5; round++ {
		if !f.shouldDrop(rng, round) {
			t.Errorf("round %d: DropProb=1 before DropUntilRound must drop", round)
		}
	}
	for round := 5; round < 8; round++ {
		if f.shouldDrop(rng, round) {
			t.Errorf("round %d: at or past DropUntilRound must deliver", round)
		}
	}
	forever := Faults{DropProb: 1}
	if !forever.shouldDrop(rng, 1000) {
		t.Error("DropUntilRound=0 must mean drops never stop")
	}
	zero := Faults{DropProb: 0, DropUntilRound: 5}
	if zero.shouldDrop(rng, 0) {
		t.Error("DropProb=0 must never drop")
	}
}

// TestFaultsValidation covers the Run-time configuration gate: broken
// probabilities, out-of-range schedule entries, and impossible recovery
// schedules are rejected up front instead of silently misbehaving.
func TestFaultsValidation(t *testing.T) {
	recoverable := func() []Node { return []Node{&chaosNode{}, &chaosNode{}, &chaosNode{}} }
	plain := func() []Node { return []Node{&recNode{stopAt: 1}, &recNode{stopAt: 1}, &recNode{stopAt: 1}} }
	tests := []struct {
		name    string
		f       Faults
		nodes   []Node
		wantErr string
	}{
		{"negative drop", Faults{DropProb: -0.1}, plain(), "DropProb"},
		{"drop above one", Faults{DropProb: 1.5}, plain(), "DropProb"},
		{"negative dup", Faults{DupProb: -1}, plain(), "DupProb"},
		{"dup above one", Faults{DupProb: 2}, plain(), "DupProb"},
		{"delay above one", Faults{DelayProb: 1.01, MaxDelay: 1}, plain(), "DelayProb"},
		{"delay without max", Faults{DelayProb: 0.5}, plain(), "MaxDelay"},
		{"negative max delay", Faults{MaxDelay: -1}, plain(), "MaxDelay"},
		{"negative drop window", Faults{DropProb: 0.1, DropUntilRound: -2}, plain(), "DropUntilRound"},
		{"negative delay window", Faults{DelayProb: 0.1, MaxDelay: 1, DelayUntilRound: -1}, plain(), "DelayUntilRound"},
		{"crash id negative", Faults{CrashAtRound: map[int]int{-1: 1}}, plain(), "CrashAtRound"},
		{"crash id beyond graph", Faults{CrashAtRound: map[int]int{99: 1}}, plain(), "CrashAtRound"},
		{"crash round negative", Faults{CrashAtRound: map[int]int{1: -3}}, plain(), "negative"},
		// With several bad entries the error names the smallest node id,
		// never one that map iteration order picked.
		{"smallest bad crash id", Faults{CrashAtRound: map[int]int{-4: 1, -9: 1, 50: 1, 7: 1, -1: 1, 12: 1}}, plain(), "CrashAtRound names node -9 "},
		{"smallest negative byzantine round", Faults{ByzantineFromRound: map[int]int{2: -1, 0: -5, 1: -2}}, plain(), "ByzantineFromRound[0] = -5 "},
		{"recover id out of range", Faults{RecoverAtRound: map[int]int{7: 4}}, recoverable(), "RecoverAtRound"},
		{"recover without crash", Faults{RecoverAtRound: map[int]int{1: 4}}, recoverable(), "no CrashAtRound"},
		{"recover before crash", Faults{CrashAtRound: map[int]int{1: 4}, RecoverAtRound: map[int]int{1: 4}}, recoverable(), "not after"},
		{"recover non-recoverable", Faults{CrashAtRound: map[int]int{1: 2}, RecoverAtRound: map[int]int{1: 4}}, plain(), "Recoverable"},
		{"link down out of range", Faults{LinkDowns: []LinkDown{{U: 0, V: 9, RoundRange: RoundRange{0, 2}}}}, plain(), "LinkDowns"},
		{"link down empty window", Faults{LinkDowns: []LinkDown{{U: 0, V: 1, RoundRange: RoundRange{3, 3}}}}, plain(), "window"},
		{"partition out of range", Faults{Partitions: []Partition{{Side: []int{-2}, RoundRange: RoundRange{0, 2}}}}, plain(), "Partitions"},
		{"burst inverted window", Faults{Bursts: []RoundRange{{5, 2}}}, plain(), "window"},
	}
	g := mustGraph(t, 3, [][2]int{{0, 1}, {1, 2}})
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			// Map iteration order differs from run to run, so one run of a
			// map-order bug could pass by luck.
			for i := 0; i < 20; i++ {
				_, err := Run(g, tt.nodes, Config{Seed: 1, Faults: tt.f})
				if err == nil || !strings.Contains(err.Error(), tt.wantErr) {
					t.Fatalf("Run = %v, want error containing %q", err, tt.wantErr)
				}
			}
		})
	}
	if _, err := Run(g, plain(), Config{Reliable: Reliable{RetryBudget: -1}}); err == nil || !strings.Contains(err.Error(), "RetryBudget") {
		t.Fatalf("negative retry budget accepted: %v", err)
	}
	if _, err := Run(g, plain(), Config{Dense: true, Parallel: true}); err == nil || !strings.Contains(err.Error(), "Dense") {
		t.Fatalf("Dense with Parallel accepted: %v", err)
	}
}

// faultRun executes the stress graph under a heavy fault schedule — drops,
// duplication, bounded reordering, a burst, a partition, a downed link,
// crashes and one recovery — and returns the stats plus a flat transcript
// of every node's receive log: one string that must be byte-identical
// across runner configurations.
func faultRun(t *testing.T, seed int64, parallel bool, workers int) (Stats, string) {
	t.Helper()
	g := stressGraph(t)
	n := g.N()
	nodes := make([]Node, n)
	recs := make([]*chaosNode, n)
	for i := range nodes {
		recs[i] = &chaosNode{stopAt: 6 + i/3}
		nodes[i] = recs[i]
	}
	stats, err := Run(g, nodes, Config{
		Seed:     seed,
		Parallel: parallel,
		Shards:   workers,
		Faults: Faults{
			DropProb:       0.3,
			DropUntilRound: 6,
			DupProb:        0.2,
			DelayProb:      0.2,
			MaxDelay:       3,
			CrashAtRound:   map[int]int{1: 2, 9: 3, 16: 1, 23: 5},
			RecoverAtRound: map[int]int{9: 6},
			Bursts:         []RoundRange{{4, 5}},
			Partitions:     []Partition{{Side: []int{0, 1, 2, 3}, RoundRange: RoundRange{2, 4}}},
			LinkDowns:      []LinkDown{{U: 5, V: 20, RoundRange: RoundRange{0, 8}}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for i, r := range recs {
		b.WriteByte(byte('a' + i%26))
		b.WriteString(strings.Join(r.log, ","))
		b.WriteByte(';')
	}
	return stats, b.String()
}

// TestFaultScheduleDeterministicAcrossWorkers is the fault half of the I5
// invariant: the injected drop/dup/delay stream and the crash, recovery,
// burst, partition, and link schedules are part of the seeded run, so
// sequential and parallel runs at any worker count must produce identical
// stats and identical per-node transcripts — and a different seed must
// produce a different fault pattern.
func TestFaultScheduleDeterministicAcrossWorkers(t *testing.T) {
	refStats, refLog := faultRun(t, 424242, false, 0)
	if refStats.Dropped == 0 || refStats.Duplicated == 0 || refStats.Delayed == 0 {
		t.Fatalf("schedule too tame: %+v", refStats)
	}
	if refStats.Crashed != 4 {
		t.Fatalf("Crashed = %d, want all 4 scheduled crashes", refStats.Crashed)
	}
	if refStats.Recovered != 1 {
		t.Fatalf("Recovered = %d, want the single scheduled recovery", refStats.Recovered)
	}
	for _, workers := range []int{1, 2, 8} {
		stats, log := faultRun(t, 424242, true, workers)
		if stats != refStats {
			t.Errorf("workers=%d: stats %+v differ from sequential %+v", workers, stats, refStats)
		}
		if log != refLog {
			t.Errorf("workers=%d: transcript diverged from sequential run", workers)
		}
	}
	// Same seed, same runner: the schedule is a pure function of the config.
	againStats, againLog := faultRun(t, 424242, false, 0)
	if againStats != refStats || againLog != refLog {
		t.Error("re-running the identical sequential config changed the outcome")
	}
	// A different seed must actually reshuffle the fault stream.
	_, otherLog := faultRun(t, 424243, false, 0)
	if otherLog == refLog {
		t.Error("different seed produced an identical transcript; fault stream is not seed-derived")
	}
}

// TestCrashScheduleEdgeCases: a crash scheduled past the run's natural end
// never fires, and Crashed counts only nodes the schedule actually halted
// (a node that halts on its own first is not double-counted).
func TestCrashScheduleEdgeCases(t *testing.T) {
	g := mustGraph(t, 3, [][2]int{{0, 1}, {1, 2}})
	nodes := []Node{&recNode{stopAt: 2}, &recNode{stopAt: 2}, &recNode{stopAt: 2}}
	stats, err := Run(g, nodes, Config{
		Seed: 7,
		Faults: Faults{CrashAtRound: map[int]int{
			2: 50, // never reached: run halts long before round 50
			0: 1,
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Crashed != 1 {
		t.Fatalf("Crashed = %d, want 1 (only node 0's crash fires in time)", stats.Crashed)
	}

	// A crash scheduled for a node that already halted must not inflate the
	// count: node 1 halts voluntarily after round 0, crash fires at round 3.
	nodes = []Node{&recNode{stopAt: 5}, &recNode{stopAt: 0}, &recNode{stopAt: 5}}
	stats, err = Run(g, nodes, Config{
		Seed:   7,
		Faults: Faults{CrashAtRound: map[int]int{1: 3}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Crashed != 0 {
		t.Fatalf("Crashed = %d, want 0 (node 1 halted on its own before its crash round)", stats.Crashed)
	}
}

func TestFaultsDropMessages(t *testing.T) {
	g := mustGraph(t, 2, [][2]int{{0, 1}})
	run := func(drop float64) (Stats, error) {
		nodes := []Node{&recNode{stopAt: 10}, &recNode{stopAt: 10}}
		return Run(g, nodes, Config{Seed: 3, Faults: Faults{DropProb: drop}})
	}
	clean, err := run(0)
	if err != nil {
		t.Fatal(err)
	}
	if clean.Dropped != 0 {
		t.Fatalf("clean run dropped %d", clean.Dropped)
	}
	faulty, err := run(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if faulty.Dropped == 0 {
		t.Fatal("no drops at p=0.5")
	}
	if faulty.Messages != clean.Messages {
		t.Fatalf("sends should be unaffected by drops: %d vs %d", faulty.Messages, clean.Messages)
	}
	all, err := run(1.0)
	if err != nil {
		t.Fatal(err)
	}
	if all.Dropped != all.Messages {
		t.Fatalf("p=1 should drop everything: %d of %d", all.Dropped, all.Messages)
	}
}

func TestFaultsDropUntilRound(t *testing.T) {
	g := mustGraph(t, 2, [][2]int{{0, 1}})
	recv := &sinkNode{stopAt: 10}
	// Sender emits one message per round for 6 rounds; drops apply only to
	// rounds < 3 at p=1, so exactly the later messages arrive.
	sender := &everyRoundSender{rounds: 6}
	_, err := Run(g, []Node{sender, recv}, Config{
		Seed:   1,
		Faults: Faults{DropProb: 1.0, DropUntilRound: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if recv.got != 3 {
		t.Fatalf("receiver got %d messages, want 3 (rounds 3,4,5)", recv.got)
	}
}

type everyRoundSender struct {
	env    *Env
	rounds int
}

func (s *everyRoundSender) Init(env *Env) { s.env = env }
func (s *everyRoundSender) Round(r int, inbox []Message) bool {
	if r >= s.rounds {
		return true
	}
	s.env.Send(1, []byte{byte(r)})
	return false
}

// sinkNode counts received messages until stopAt.
type sinkNode struct {
	stopAt int
	got    int
}

func (s *sinkNode) Init(*Env) {}
func (s *sinkNode) Round(r int, inbox []Message) bool {
	s.got += len(inbox)
	return r >= s.stopAt
}

func TestFaultsCrash(t *testing.T) {
	g := mustGraph(t, 3, [][2]int{{0, 1}, {1, 2}})
	nodes := []Node{&everyRoundSender{rounds: 6}, &sinkNode{stopAt: 10}, &everyRoundSender{rounds: 6}}
	// Node 2 would send to... its only neighbour is 1; it crashes at round 2.
	stats, err := Run(g, nodes, Config{
		Seed:   1,
		Faults: Faults{CrashAtRound: map[int]int{2: 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Crashed != 1 {
		t.Fatalf("Crashed = %d", stats.Crashed)
	}
	// Crashed node sent only in rounds 0 and 1; node 0 sent 6 times.
	if stats.Messages != 6+2 {
		t.Fatalf("Messages = %d, want 8", stats.Messages)
	}
}

func TestFaultsZeroValueIsIdentical(t *testing.T) {
	g := mustGraph(t, 4, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}})
	run := func(f Faults) Stats {
		nodes := make([]Node, 4)
		for i := range nodes {
			nodes[i] = &recNode{stopAt: 6}
		}
		st, err := Run(g, nodes, Config{Seed: 9, Faults: f})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	if a, b := run(Faults{}), run(Faults{DropProb: 0}); a != b {
		t.Fatalf("zero faults changed the run: %+v vs %+v", a, b)
	}
}
