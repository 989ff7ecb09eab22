package congest

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
)

// stressGraph is a 24-node graph with an irregular degree distribution so
// that work per shard is uneven and, through the hub at node 0 and the
// chords, traffic crosses every shard boundary.
func stressGraph(t *testing.T) *Graph {
	t.Helper()
	g := NewGraph(24)
	add := func(u, v int) {
		if err := g.AddEdge(u, v); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 23; i++ {
		add(i, i+1) // path backbone
	}
	for i := 2; i < 24; i += 3 {
		add(0, i) // hub at node 0
	}
	add(5, 20)
	add(7, 15)
	return g
}

// runStress executes recNodes with staggered halt times under message drops
// and crashes, returning the run's stats and per-node receive logs.
func runStress(t *testing.T, parallel bool, workers int) (Stats, [][]string) {
	t.Helper()
	g := stressGraph(t)
	n := g.N()
	nodes := make([]Node, n)
	recs := make([]*recNode, n)
	for i := range nodes {
		// Staggered halts cluster the live nodes at the high ids late in
		// the run.
		recs[i] = &recNode{stopAt: 3 + i/2}
		nodes[i] = recs[i]
	}
	stats, err := Run(g, nodes, Config{
		Seed:     99,
		Parallel: parallel,
		Shards:   workers,
		Faults: Faults{
			DropProb:       0.25,
			DropUntilRound: 8,
			CrashAtRound:   map[int]int{3: 2, 11: 4, 22: 1},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	logs := make([][]string, n)
	for i, r := range recs {
		logs[i] = r.log
	}
	return stats, logs
}

// TestPoolStressEquivalence is the I5 invariant under stress: a Parallel
// run must be byte-identical to the sequential runner for every worker
// count, with drops and crashes injected and halted nodes clustering over
// time. Faults take the sequential runner, so this pins that fallback's
// contract; TestShardedDeterminismMatrix's fault-free row stresses the
// pool itself.
func TestPoolStressEquivalence(t *testing.T) {
	seqStats, seqLogs := runStress(t, false, 0)
	if seqStats.Dropped == 0 || seqStats.Crashed != 3 {
		t.Fatalf("stress scenario too tame: %+v", seqStats)
	}
	for _, workers := range []int{1, 2, 7, runtime.GOMAXPROCS(0), 64} {
		parStats, parLogs := runStress(t, true, workers)
		if seqStats != parStats {
			t.Fatalf("workers=%d stats differ: %+v vs %+v", workers, seqStats, parStats)
		}
		for id := range seqLogs {
			if len(seqLogs[id]) != len(parLogs[id]) {
				t.Fatalf("workers=%d node %d log length %d vs %d",
					workers, id, len(seqLogs[id]), len(parLogs[id]))
			}
			for k := range seqLogs[id] {
				if seqLogs[id][k] != parLogs[id][k] {
					t.Fatalf("workers=%d node %d entry %d: %q vs %q",
						workers, id, k, seqLogs[id][k], parLogs[id][k])
				}
			}
		}
	}
}

// sortedInboxNode fails the run if its inbox ever arrives unsorted by
// sender id or with a duplicate sender — the invariant that lets the merge
// skip the per-inbox sort entirely.
type sortedInboxNode struct {
	env    *Env
	t      *testing.T
	stopAt int
}

func (s *sortedInboxNode) Init(env *Env) { s.env = env }

func (s *sortedInboxNode) Round(r int, inbox []Message) bool {
	for k := 1; k < len(inbox); k++ {
		if inbox[k-1].From >= inbox[k].From {
			s.t.Errorf("node %d round %d: inbox out of order or duplicated: %d then %d",
				s.env.ID(), r, inbox[k-1].From, inbox[k].From)
		}
	}
	if r >= s.stopAt {
		return true
	}
	s.env.Broadcast([]byte{byte(r)})
	return false
}

// TestInboxesArriveSortedWithoutSort guards the sorted-merge invariant on
// both runners: ascending-sender merge order plus the one-message-per-pair
// rule means inboxes are born sorted, so the engine does not sort them.
func TestInboxesArriveSortedWithoutSort(t *testing.T) {
	for _, parallel := range []bool{false, true} {
		g := stressGraph(t)
		nodes := make([]Node, g.N())
		for i := range nodes {
			nodes[i] = &sortedInboxNode{t: t, stopAt: 6}
		}
		if _, err := Run(g, nodes, Config{Seed: 5, Parallel: parallel, Shards: 4}); err != nil {
			t.Fatal(err)
		}
	}
}

// exitRunners are the three runners of one execution over every node id:
// the sequential runner, the shard pool at two shards, and RunShard on a
// one-shard ChanNetwork. They share one round loop, so their exit paths
// must agree.
var exitRunners = []struct {
	name string
	run  func(g *Graph, nodes []Node, cfg Config) (Stats, error)
}{
	{"Run", Run},
	{"pool", func(g *Graph, nodes []Node, cfg Config) (Stats, error) {
		cfg.Parallel, cfg.Shards = true, 2
		return Run(g, nodes, cfg)
	}},
	{"RunShard", func(g *Graph, nodes []Node, cfg Config) (Stats, error) {
		g.Finalize()
		sp := Span{0, g.N()}
		net, err := NewChanNetwork(g.N(), []Span{sp})
		if err != nil {
			return Stats{}, err
		}
		return RunShard(g, nodes, sp, cfg, net.Shard(0))
	}},
}

// TestStatsRoundsOnRoundLimit pins the round budget on every runner: a
// run whose nodes have all halted when round MaxRounds would start ends
// cleanly, one with a node still live then fails with ErrRoundLimit, and
// either way Stats report the rounds actually executed, not zero.
func TestStatsRoundsOnRoundLimit(t *testing.T) {
	type exit struct {
		err               bool
		rounds, finalLive int
		liveNodeRounds    int64
	}
	type budgetCase struct {
		name      string
		stopAt    int // the round both nodes halt in; -1 spins forever
		maxRounds int
		want      exit
	}
	cases := []budgetCase{{"spin", -1, 10, exit{true, 10, 2, 20}}}
	for _, mr := range []int{1, 2, 3} {
		cases = append(cases,
			budgetCase{fmt.Sprintf("halt in round %d of budget %d", mr-1, mr), mr - 1, mr, exit{false, mr, 0, int64(2 * mr)}},
			budgetCase{fmt.Sprintf("halt in round %d of budget %d", mr, mr), mr, mr, exit{true, mr, 2, int64(2 * mr)}})
	}
	for _, tc := range cases {
		var first Stats
		for i, r := range exitRunners {
			nodes := []Node{spinNode{}, spinNode{}}
			if tc.stopAt >= 0 {
				nodes = []Node{&recNode{stopAt: tc.stopAt}, &recNode{stopAt: tc.stopAt}}
			}
			stats, err := r.run(mustGraph(t, 2, [][2]int{{0, 1}}), nodes, Config{Seed: 3, MaxRounds: tc.maxRounds})
			got := exit{err != nil, stats.Rounds, stats.FinalLive, stats.LiveNodeRounds}
			if got != tc.want || (err != nil && !errors.Is(err, ErrRoundLimit)) {
				t.Errorf("%s, %s: %+v, err %v; want %+v", tc.name, r.name, got, err, tc.want)
			}
			if i == 0 {
				first = stats
			} else if stats != first {
				t.Errorf("%s: %s Stats %+v, %s's %+v", tc.name, r.name, stats, exitRunners[0].name, first)
			}
		}
	}
}

// TestStatsRoundsOnSendError pins the other exit on every runner: a send
// violation aborts with the same error and the same Stats, the partial
// round included in Rounds.
func TestStatsRoundsOnSendError(t *testing.T) {
	var first Stats
	var firstErr error
	for i, r := range exitRunners {
		g := mustGraph(t, 3, [][2]int{{0, 1}, {1, 2}})
		nodes := []Node{&errNode{mode: "nonNeighbor"}, &errNode{}, &errNode{}}
		stats, err := r.run(g, nodes, Config{BitLimit: 16})
		if err == nil {
			t.Fatalf("%s: want send violation", r.name)
		}
		if stats.Rounds != 1 {
			t.Fatalf("%s: Rounds = %d, want 1 (the round whose merge hit the violation)", r.name, stats.Rounds)
		}
		if i == 0 {
			first, firstErr = stats, err
		} else if stats != first || err.Error() != firstErr.Error() {
			t.Errorf("%s: (%+v, %v), %s's (%+v, %v)", r.name, stats, err, exitRunners[0].name, first, firstErr)
		}
	}
}

// TestPoolWorkerCapExceedsNodes checks the pool degrades gracefully when
// asked for more workers than nodes.
func TestPoolWorkerCapExceedsNodes(t *testing.T) {
	g := mustGraph(t, 2, [][2]int{{0, 1}})
	nodes := []Node{&recNode{stopAt: 3}, &recNode{stopAt: 3}}
	stats, err := Run(g, nodes, Config{Seed: 1, Parallel: true, Shards: 32})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Messages == 0 {
		t.Fatalf("no traffic: %+v", stats)
	}
}
