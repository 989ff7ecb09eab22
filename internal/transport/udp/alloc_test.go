package udp

import (
	"runtime"
	"testing"

	"dfl/internal/core"
	"dfl/internal/gen"
)

// TestDeploymentAllocsNearSolve holds the datagram path to CONGEST's cost
// model: on flperf's fleet_udp instance shape, a fault-free 2-shard
// loopback deployment (gateway, both shards, fragment decode) may allocate
// at most 4× what the in-process Solve of the same instance and seed does.
// Each shard builds the whole node population, so about 2× is the engine's
// share; the rest is sockets, goroutines, and frame slots and buffers that
// each link grows once. The deployment sends about 600 frames and 700
// acks, so an allocation per frame or per ack, let alone per record,
// crosses this bound; 8× would let one AppendFrame(nil, …) per frame
// (4.9×) or a string link key per datagram (6.9×) through.
func TestDeploymentAllocsNearSolve(t *testing.T) {
	if testing.Short() {
		t.Skip("times whole loopback deployments")
	}
	inst, err := gen.Uniform{M: 200, NC: 4000, Density: 0.05, MinDegree: 2}.Generate(1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{K: 16}
	const seed = 1
	runtime.GC()
	solve := testing.AllocsPerRun(2, func() {
		if _, _, err := core.Solve(inst, cfg, core.WithSeed(seed)); err != nil {
			t.Fatal(err)
		}
	})
	runtime.GC()
	fleet := testing.AllocsPerRun(2, func() {
		out := deploy(t, inst, cfg, seed, 2, "", -1, 0)
		for i, err := range out.errs {
			if err != nil {
				t.Fatalf("shard %d: %v", i, err)
			}
		}
	})
	t.Logf("allocations per run: deployment %.0f, in-process Solve %.0f (%.1f×)", fleet, solve, fleet/solve)
	if fleet > 4*solve {
		t.Errorf("deployment allocates %.0f, more than 4× Solve's %.0f", fleet, solve)
	}
}
