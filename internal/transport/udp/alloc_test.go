package udp

import (
	"runtime"
	"testing"

	"dfl/internal/congest"
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

// TestShardBeginAllocsNothing holds Begin to what the engine reads of it,
// RoundStart.Done: on an open round, with a peer shard marked down by the
// newest GO, Begin allocates nothing. A Begin that lists the down span's
// node ids allocates a slice of that span's size on every round.
func TestShardBeginAllocsNothing(t *testing.T) {
	s, err := newShard(0, 3, "127.0.0.1:9", Config{}, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const round = 4
	s.ep.mu.Lock()
	s.spans = congest.SplitSpans(3000, 3)
	s.maxGo = round
	s.goDown[2] = true
	s.ep.mu.Unlock()
	allocs := testing.AllocsPerRun(100, func() {
		if rs, err := s.Begin(round); err != nil || rs.Done {
			t.Fatalf("Begin(%d) = %+v, %v; want an open round", round, rs, err)
		}
	})
	if allocs != 0 {
		t.Errorf("Begin allocates %.1f times per call with a peer down, want 0", allocs)
	}
}
