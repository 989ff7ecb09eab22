package congest

import "testing"

// shardMatrixSchedules is the I5 acceptance grid: fault-free (the
// shard-local ingest), drop+crash (fault delivery, which a parallel run
// hands to the sequential runner), and corrupt+byzantine (adversarial
// draws on the fault stream). Each must be byte-identical across the shard
// counts of shardMatrixCounts and against the sequential runner.
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

// shardMatrixCounts are the matrix's shard counts on the 24-node stress
// graph: one shard, even splits, a count that does not divide n, and one
// shard per node, so broadcasts cross every kind of shard boundary.
var shardMatrixCounts = []int{1, 2, 5, 8, 24}

// runShardMatrix runs recNodes that Send to every neighbour or, with
// bcast, mix Broadcast rounds in.
func runShardMatrix(t *testing.T, f Faults, parallel bool, shards int, bcast bool) (Stats, [][]string) {
	t.Helper()
	g := stressGraph(t)
	n := g.N()
	nodes := make([]Node, n)
	recs := make([]*recNode, n)
	for i := range nodes {
		recs[i] = &recNode{stopAt: 4 + i/3, bcast: bcast}
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
// grid: every schedule x node variant x shard count yields traces
// (per-node receive logs, payload bytes included) and Stats byte-identical
// to the sequential runner.
func TestShardedDeterminismMatrix(t *testing.T) {
	for _, sc := range shardMatrixSchedules() {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			for _, bcast := range []bool{false, true} {
				seqStats, seqLogs := runShardMatrix(t, sc.f, false, 0, bcast)
				if sc.f.DropProb > 0 && seqStats.Dropped == 0 {
					t.Fatalf("schedule too tame: %+v", seqStats)
				}
				if sc.f.CorruptProb > 0 && seqStats.Corrupted == 0 {
					t.Fatalf("schedule too tame: %+v", seqStats)
				}
				for _, shards := range shardMatrixCounts {
					parStats, parLogs := runShardMatrix(t, sc.f, true, shards, bcast)
					if seqStats != parStats {
						t.Fatalf("bcast=%v shards=%d stats differ:\n%+v\n%+v", bcast, shards, seqStats, parStats)
					}
					for id := range seqLogs {
						if len(seqLogs[id]) != len(parLogs[id]) {
							t.Fatalf("bcast=%v shards=%d node %d log length %d vs %d",
								bcast, shards, id, len(seqLogs[id]), len(parLogs[id]))
						}
						for k := range seqLogs[id] {
							if seqLogs[id][k] != parLogs[id][k] {
								t.Fatalf("bcast=%v shards=%d node %d entry %d: %q vs %q",
									bcast, shards, id, k, seqLogs[id][k], parLogs[id][k])
							}
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
// sequential runner, whose drain counts exactly the senders below the
// offender. The offender sits in a middle shard with broadcasting senders
// on both sides, so a fold that stopped early or ran past the offender's
// shard would show in the partial counters.
func TestShardedSendViolationMatchesSequential(t *testing.T) {
	run := func(parallel bool, shards int) (Stats, string) {
		g := mustGraph(t, 6, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}})
		nodes := make([]Node, g.N())
		for i := range nodes {
			nodes[i] = &errNode{mode: "broadcast"}
		}
		nodes[2] = &errNode{mode: "double"}
		stats, err := Run(g, nodes, Config{BitLimit: 16, Parallel: parallel, Shards: shards})
		if err == nil {
			t.Fatal("want send violation")
		}
		return stats, err.Error()
	}
	seqStats, seqErr := run(false, 0)
	if seqStats.Messages == 0 {
		t.Fatalf("no partial accounting before the offender: %+v", seqStats)
	}
	for _, shards := range []int{1, 2, 3, 6} {
		parStats, parErr := run(true, shards)
		if parErr != seqErr {
			t.Fatalf("shards=%d error %q, want %q", shards, parErr, seqErr)
		}
		if parStats != seqStats {
			t.Fatalf("shards=%d stats %+v, want %+v", shards, parStats, seqStats)
		}
	}
}
