package congest

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// randomConnectedGraph builds a connected graph: a random spanning tree
// plus extra random edges.
func randomConnectedGraph(rng *rand.Rand, n int) *Graph {
	g := NewGraph(n)
	for v := 1; v < n; v++ {
		u := rng.Intn(v)
		_ = g.AddEdge(u, v)
	}
	extra := rng.Intn(n + 1)
	for e := 0; e < extra; e++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v && !g.HasEdge(u, v) {
			_ = g.AddEdge(u, v)
		}
	}
	return g
}

func TestComponents(t *testing.T) {
	g := mustGraph(t, 6, [][2]int{{0, 1}, {1, 2}, {4, 5}})
	labels := Components(g)
	want := []int{0, 0, 0, 3, 4, 4}
	for i := range want {
		if labels[i] != want[i] {
			t.Fatalf("labels = %v, want %v", labels, want)
		}
	}
}

func TestDiameter(t *testing.T) {
	tests := []struct {
		name  string
		n     int
		edges [][2]int
		want  int
	}{
		{"single node", 1, nil, 0},
		{"edgeless", 3, nil, 0},
		{"path of 4", 4, [][2]int{{0, 1}, {1, 2}, {2, 3}}, 3},
		{"triangle", 3, [][2]int{{0, 1}, {1, 2}, {0, 2}}, 1},
		{"star", 5, [][2]int{{0, 1}, {0, 2}, {0, 3}, {0, 4}}, 2},
		{"two components", 6, [][2]int{{0, 1}, {1, 2}, {3, 4}, {4, 5}}, 2},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Diameter(mustGraph(t, tt.n, tt.edges)); got != tt.want {
				t.Fatalf("Diameter = %d, want %d", got, tt.want)
			}
		})
	}
}

func TestAggregateMinPath(t *testing.T) {
	g := mustGraph(t, 5, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}})
	values := []int64{50, 40, 7, 40, 50}
	mins, stats, err := AggregateMin(g, values, Diameter(g)+1, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range mins {
		if v != 7 {
			t.Fatalf("node %d min = %d, want 7", i, v)
		}
	}
	if stats.Messages == 0 {
		t.Fatal("no messages counted")
	}
}

func TestAggregateMinPerComponent(t *testing.T) {
	g := mustGraph(t, 5, [][2]int{{0, 1}, {3, 4}})
	values := []int64{5, 3, 9, -2, 8}
	mins, _, err := AggregateMin(g, values, Diameter(g)+1, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{3, 3, 9, -2, -2}
	for i := range want {
		if mins[i] != want[i] {
			t.Fatalf("mins = %v, want %v", mins, want)
		}
	}
}

func TestAggregateMaxNegatesCorrectly(t *testing.T) {
	g := mustGraph(t, 3, [][2]int{{0, 1}, {1, 2}})
	maxs, _, err := AggregateMax(g, []int64{-5, 0, 12}, 3, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range maxs {
		if v != 12 {
			t.Fatalf("node %d max = %d, want 12", i, v)
		}
	}
}

func TestAggregateMinLengthMismatch(t *testing.T) {
	g := NewGraph(3)
	if _, _, err := AggregateMin(g, []int64{1}, 1, Config{}); err == nil {
		t.Fatal("want length mismatch error")
	}
}

// TestAggregateMinMatchesBFS property-tests the flood against a direct
// component-wise computation on random connected graphs.
func TestAggregateMinMatchesBFS(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(20) + 2
		g := randomConnectedGraph(rng, n)
		values := make([]int64, n)
		for i := range values {
			values[i] = rng.Int63n(1000) - 500
		}
		want := values[0]
		for _, v := range values[1:] {
			if v < want {
				want = v
			}
		}
		mins, _, err := AggregateMin(g, values, Diameter(g)+1, Config{Seed: seed})
		if err != nil {
			return false
		}
		for _, v := range mins {
			if v != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestConvergecastSumPath(t *testing.T) {
	g := mustGraph(t, 4, [][2]int{{0, 1}, {1, 2}, {2, 3}})
	sums, _, err := ConvergecastSum(g, []int64{1, 2, 3, 4}, Diameter(g)+1, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range sums {
		if v != 10 {
			t.Fatalf("node %d sum = %d, want 10", i, v)
		}
	}
}

func TestConvergecastSumComponents(t *testing.T) {
	g := mustGraph(t, 6, [][2]int{{0, 1}, {1, 2}, {4, 5}})
	sums, _, err := ConvergecastSum(g, []int64{1, 1, 1, 7, 2, 3}, 4, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{3, 3, 3, 7, 5, 5}
	for i := range want {
		if sums[i] != want[i] {
			t.Fatalf("sums = %v, want %v", sums, want)
		}
	}
}

func TestConvergecastSumSingleNode(t *testing.T) {
	g := NewGraph(1)
	sums, _, err := ConvergecastSum(g, []int64{42}, 1, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sums[0] != 42 {
		t.Fatalf("sum = %d", sums[0])
	}
}

// TestConvergecastSumMatchesComponents property-tests the spanning-tree
// sum against a direct computation on random graphs (connected and not).
func TestConvergecastSumMatchesComponents(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(24) + 1
		g := NewGraph(n)
		for e := 0; e < rng.Intn(3*n); e++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v && !g.HasEdge(u, v) {
				_ = g.AddEdge(u, v)
			}
		}
		values := make([]int64, n)
		for i := range values {
			values[i] = rng.Int63n(100)
		}
		labels := Components(g)
		want := make(map[int]int64)
		for i, v := range values {
			want[labels[i]] += v
		}
		sums, _, err := ConvergecastSum(g, values, Diameter(g)+1, Config{Seed: seed})
		if err != nil {
			return false
		}
		for i := range sums {
			if sums[i] != want[labels[i]] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestConvergecastSumRadiusTooSmall(t *testing.T) {
	// A long path with radius 1: the tree cannot finish and the call must
	// report it rather than return wrong numbers.
	g := mustGraph(t, 8, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6}, {6, 7}})
	if _, _, err := ConvergecastSum(g, make([]int64, 8), 1, Config{Seed: 1}); err == nil {
		t.Skip("small radius happened to suffice on this topology")
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

// TestAggregationParallelEquivalence checks that the aggregation
// primitives are deterministic under the parallel runner too.
func TestAggregationParallelEquivalence(t *testing.T) {
	g := mustGraph(t, 8, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6}, {6, 7}, {7, 0}, {0, 4}})
	values := []int64{9, 3, 7, 1, 8, 2, 6, 4}
	radius := Diameter(g) + 1
	seqMins, seqStats, err := AggregateMin(g, values, radius, Config{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	parMins, parStats, err := AggregateMin(g, values, radius, Config{Seed: 5, Parallel: true, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	if seqStats != parStats {
		t.Fatalf("stats diverged: %+v vs %+v", seqStats, parStats)
	}
	for i := range seqMins {
		if seqMins[i] != parMins[i] {
			t.Fatalf("mins diverged at %d", i)
		}
	}
	seqSums, _, err := ConvergecastSum(g, values, radius, Config{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	parSums, _, err := ConvergecastSum(g, values, radius, Config{Seed: 5, Parallel: true, Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := range seqSums {
		if seqSums[i] != parSums[i] {
			t.Fatalf("sums diverged at %d", i)
		}
	}
}
