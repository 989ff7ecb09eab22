package core

import (
	"runtime"
	"testing"

	"dfl/internal/congest"
	"dfl/internal/gen"
)

// maxSolveBytesPerEdge bounds what one sequential Solve allocates per
// directed edge of its communication graph. With the adjacency held once,
// at 4-byte ids, in the graph, facility nodes that view its rows, and
// 32-byte message records, the run below allocates about 77 bytes per
// directed edge (78 under -race). The layout before — a staged pair list,
// an int-wide neighbour array, facility rows copied out of the instance
// and 40-byte records — allocated 111.6, so the bound fails it with room
// to spare for runtime and toolchain drift.
const maxSolveBytesPerEdge = 90

// TestSolveAllocBytesPerEdge measures the bytes one Solve allocates, by
// runtime.MemStats.TotalAlloc, on solve_mid's instance shape at a quarter
// of its size, and checks them against maxSolveBytesPerEdge.
func TestSolveAllocBytesPerEdge(t *testing.T) {
	inst, err := gen.Uniform{M: 200, NC: 1600, Density: 0.2, MinDegree: 3}.Generate(1)
	if err != nil {
		t.Fatal(err)
	}
	directed := 2 * inst.EdgeCount()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if _, _, err := Solve(inst, Config{K: 16}, WithSeed(1)); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	perEdge := float64(after.TotalAlloc-before.TotalAlloc) / float64(directed)
	t.Logf("%d directed edges, %.1f bytes allocated per directed edge", directed, perEdge)
	if perEdge > maxSolveBytesPerEdge {
		t.Fatalf("Solve allocated %.1f bytes per directed edge, bound %d", perEdge, maxSolveBytesPerEdge)
	}
}

// TestChaosSolveAllocsNearClean is solve_chaos's allocation side row: on
// instances of that workload's shape, a Solve under its faults, with the
// reliable shim underneath, allocates at most twice what the same
// instance's fault-free Solve does. The shim keeps its link state in
// per-edge arrays and its frames in reused slots, so the fault pipeline
// adds a fixed number of allocations rather than some per message.
func TestChaosSolveAllocsNearClean(t *testing.T) {
	chaos := []Option{
		WithFaults(congest.Faults{DropProb: 0.2, DupProb: 0.1, CrashAtRound: map[int]int{0: 5, 1: 9}}),
		WithReliableDelivery(2),
	}
	for seed := int64(0); seed < 3; seed++ {
		inst, err := gen.Uniform{M: 40, NC: 200, Density: 0.3, MinDegree: 2}.Generate(seed)
		if err != nil {
			t.Fatal(err)
		}
		allocs := func(opts ...Option) float64 {
			return testing.AllocsPerRun(3, func() {
				if _, _, err := Solve(inst, Config{K: 16}, append([]Option{WithSeed(seed)}, opts...)...); err != nil {
					t.Fatal(err)
				}
			})
		}
		clean, shim := allocs(), allocs(chaos...)
		t.Logf("instance %d: %v allocations fault-free, %v under solve_chaos's faults", seed, clean, shim)
		if shim > 2*clean {
			t.Errorf("instance %d: %v allocations under faults, more than twice the fault-free %v", seed, shim, clean)
		}
	}
}
