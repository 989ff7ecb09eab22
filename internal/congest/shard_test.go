package congest

import (
	"fmt"
	"math/rand"
	"testing"
)

// circulant builds the degree-2d circulant graph on n nodes used by the
// engine throughput benchmark — the topology the partitioner should carve
// into contiguous id ranges.
func circulant(t *testing.T, n, d int) *Graph {
	t.Helper()
	g := NewGraph(n)
	for u := 0; u < n; u++ {
		for k := 1; k <= d; k++ {
			_ = g.AddEdge(u, (u+k)%n) // duplicates rejected, which is fine
		}
	}
	return g
}

// edgeCut counts undirected edges crossing shard boundaries.
func edgeCut(g *Graph, parts [][]int32) int {
	shardOf := make([]int, g.N())
	for s, members := range parts {
		for _, id := range members {
			shardOf[id] = s
		}
	}
	cut := 0
	for u := 0; u < g.N(); u++ {
		for _, v := range g.Neighbors(u) {
			if u < v && shardOf[u] != shardOf[v] {
				cut++
			}
		}
	}
	return cut
}

// TestPartitionShardsBalanceAndCover checks the static partition contract:
// shards are balanced within one node, disjoint, cover every node, hold
// ascending members, and the shard count is capped at n.
func TestPartitionShardsBalanceAndCover(t *testing.T) {
	for _, tc := range []struct{ n, k int }{
		{1, 1}, {2, 8}, {24, 3}, {64, 4}, {65, 4}, {100, 7},
	} {
		g := circulant(t, tc.n, 2)
		parts := partitionShards(g, tc.k)
		wantShards := tc.k
		if wantShards > tc.n {
			wantShards = tc.n
		}
		if len(parts) != wantShards {
			t.Fatalf("n=%d k=%d: got %d shards", tc.n, tc.k, len(parts))
		}
		seen := make([]bool, tc.n)
		for s, members := range parts {
			if len(members) < tc.n/wantShards || len(members) > tc.n/wantShards+1 {
				t.Fatalf("n=%d k=%d: shard %d has %d members, want balanced", tc.n, tc.k, s, len(members))
			}
			for i, id := range members {
				if seen[id] {
					t.Fatalf("node %d assigned twice", id)
				}
				seen[id] = true
				if i > 0 && members[i-1] >= id {
					t.Fatalf("shard %d members not ascending: %v", s, members)
				}
			}
		}
		for id, ok := range seen {
			if !ok {
				t.Fatalf("n=%d k=%d: node %d unassigned", tc.n, tc.k, id)
			}
		}
	}
}

// TestPartitionShardsLocality pins the greedy edge-cut behaviour on the
// benchmark topology: on a circulant ring the greedy growth from the
// lowest unassigned id must recover contiguous intervals, whose cut
// (2 shards x d boundary edges each... = 2*k*d/2 per direction) is the
// optimum for balanced contiguous blocks — and far below the expected cut
// of a random balanced partition.
func TestPartitionShardsLocality(t *testing.T) {
	const n, d, k = 64, 4, 4
	g := circulant(t, n, d)
	parts := partitionShards(g, k)
	for s, members := range parts {
		for i := 1; i < len(members); i++ {
			if members[i] != members[i-1]+1 {
				t.Fatalf("shard %d is not a contiguous interval on the circulant: %v", s, members)
			}
		}
	}
	// k contiguous blocks on a degree-2d circulant cut d*(d+1)/2 edges per
	// boundary and there are k boundaries.
	if cut, want := edgeCut(g, parts), k*d*(d+1)/2; cut != want {
		t.Fatalf("edge cut %d, want %d for contiguous blocks", cut, want)
	}
}

// TestPartitionShardsDeterministic: same graph, same shards, every call.
func TestPartitionShardsDeterministic(t *testing.T) {
	g := stressGraph(t)
	a := partitionShards(g, 5)
	b := partitionShards(g, 5)
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("partition not deterministic:\n%v\n%v", a, b)
	}
}

// shardMatrixSchedules is the satellite acceptance grid: fault-free (the
// sharded per-destination merge), drop+crash (fault delivery on the caller
// goroutine), and corrupt+byzantine (adversarial draws on the fault
// stream). Each must be byte-identical across shard counts 1, 2, and 8
// and against the sequential runner.
func shardMatrixSchedules() []struct {
	name string
	f    Faults
} {
	return []struct {
		name string
		f    Faults
	}{
		{name: "fault_free", f: Faults{}},
		{name: "drop_crash", f: Faults{
			DropProb:     0.3,
			CrashAtRound: map[int]int{4: 2, 17: 5},
		}},
		{name: "corrupt_byzantine", f: Faults{
			CorruptProb:        0.25,
			ByzantineFromRound: map[int]int{2: 1, 9: 3},
		}},
	}
}

func runShardMatrix(t *testing.T, f Faults, parallel bool, shards int) (Stats, [][]string) {
	t.Helper()
	g := stressGraph(t)
	n := g.N()
	nodes := make([]Node, n)
	recs := make([]*recNode, n)
	for i := range nodes {
		recs[i] = &recNode{stopAt: 4 + i/3}
		nodes[i] = recs[i]
	}
	stats, err := Run(g, nodes, Config{
		Seed:     424242,
		Parallel: parallel,
		Shards:   shards,
		Faults:   f,
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

// TestShardedDeterminismMatrix asserts invariant I5 over the full shard
// grid: every schedule x shard count yields traces (per-node receive logs,
// payload bytes included) and Stats byte-identical to the sequential
// runner.
func TestShardedDeterminismMatrix(t *testing.T) {
	for _, sc := range shardMatrixSchedules() {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			seqStats, seqLogs := runShardMatrix(t, sc.f, false, 0)
			if sc.f.DropProb > 0 && seqStats.Dropped == 0 {
				t.Fatalf("schedule too tame: %+v", seqStats)
			}
			if sc.f.CorruptProb > 0 && seqStats.Corrupted == 0 {
				t.Fatalf("schedule too tame: %+v", seqStats)
			}
			for _, shards := range []int{1, 2, 8} {
				parStats, parLogs := runShardMatrix(t, sc.f, true, shards)
				if seqStats != parStats {
					t.Fatalf("shards=%d stats differ:\n%+v\n%+v", shards, seqStats, parStats)
				}
				for id := range seqLogs {
					if len(seqLogs[id]) != len(parLogs[id]) {
						t.Fatalf("shards=%d node %d log length %d vs %d",
							shards, id, len(seqLogs[id]), len(parLogs[id]))
					}
					for k := range seqLogs[id] {
						if seqLogs[id][k] != parLogs[id][k] {
							t.Fatalf("shards=%d node %d entry %d: %q vs %q",
								shards, id, k, seqLogs[id][k], parLogs[id][k])
						}
					}
				}
			}
		})
	}
}

// TestShardedSendViolationMatchesSequential pins the abort path: when a
// node breaks the CONGEST send contract mid-run, the sharded runner must
// report the same error and the same partially-accounted Stats as the
// sequential runner (the workers leave env.out intact and the engine
// falls back to the sequential merge walk).
func TestShardedSendViolationMatchesSequential(t *testing.T) {
	run := func(parallel bool, shards int) (Stats, string) {
		g := mustGraph(t, 4, [][2]int{{0, 1}, {1, 2}, {2, 3}})
		nodes := []Node{&errNode{}, &errNode{}, &errNode{}, &errNode{mode: "double"}}
		stats, err := Run(g, nodes, Config{BitLimit: 16, Parallel: parallel, Shards: shards})
		if err == nil {
			t.Fatal("want send violation")
		}
		return stats, err.Error()
	}
	seqStats, seqErr := run(false, 0)
	for _, shards := range []int{1, 2, 4} {
		parStats, parErr := run(true, shards)
		if parErr != seqErr {
			t.Fatalf("shards=%d error %q, want %q", shards, parErr, seqErr)
		}
		if parStats != seqStats {
			t.Fatalf("shards=%d stats %+v, want %+v", shards, parStats, seqStats)
		}
	}
}

// TestGainHeapPopsInOrder: the partition frontier must hand out entries
// highest gain first, lowest id on ties, or partitionShards does not claim
// the node with the most neighbours already inside the growing shard.
func TestGainHeapPopsInOrder(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var h gainHeap
		for i := 0; i < 20; i++ {
			h.push(gainEntry{gain: rng.Intn(6), id: rng.Intn(100)})
		}
		prev := h[0]
		for len(h) > 0 {
			top := h[0]
			h.pop()
			if h.less(top, prev) {
				t.Fatalf("seed %d: popped %+v after %+v", seed, top, prev)
			}
			prev = top
		}
	}
}
