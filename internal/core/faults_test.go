package core

import (
	"testing"
	"testing/quick"

	"dfl/internal/congest"
	"dfl/internal/fl"
	"dfl/internal/gen"
)

// TestSolveFeasibleUnderMessageLoss is the failure-injection invariant:
// dropping protocol messages at ANY rate during the phase sweep never
// breaks feasibility, because the cleanup rounds are the commitment
// barrier. Quality may degrade; correctness must not.
func TestSolveFeasibleUnderMessageLoss(t *testing.T) {
	inst, err := gen.Uniform{M: 15, NC: 80, Density: 0.3, MinDegree: 1}.Generate(3)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []float64{0.05, 0.25, 0.5, 0.9, 1.0} {
		sol, rep, err := Solve(inst, Config{K: 16}, WithSeed(1), WithFaults(congest.Faults{DropProb: p}))
		if err != nil {
			t.Fatalf("p=%.2f: %v", p, err)
		}
		if err := fl.Validate(inst, sol); err != nil {
			t.Fatalf("p=%.2f: %v", p, err)
		}
		if p > 0 && rep.Net.Dropped == 0 {
			t.Fatalf("p=%.2f: nothing was dropped", p)
		}
	}
}

// TestSolveTotalLossDegradesToCheapest checks the limiting case: at 100%
// loss nothing opens during the sweep and every client is rescued by the
// cleanup, which is exactly the cheapest-per-client baseline.
func TestSolveTotalLossDegradesToCheapest(t *testing.T) {
	inst, err := gen.Uniform{M: 10, NC: 40}.Generate(5)
	if err != nil {
		t.Fatal(err)
	}
	sol, rep, err := Solve(inst, Config{K: 9}, WithSeed(2), WithFaults(congest.Faults{DropProb: 1.0}))
	if err != nil {
		t.Fatal(err)
	}
	if rep.CleanupClients != inst.NC() {
		t.Fatalf("cleanup clients = %d, want all %d", rep.CleanupClients, inst.NC())
	}
	for j := 0; j < inst.NC(); j++ {
		e, _ := inst.CheapestEdge(j)
		if sol.Assign[j] != e.To {
			t.Fatalf("client %d assigned %d, want cheapest %d", j, sol.Assign[j], e.To)
		}
	}
}

// TestSolveLossMonotonicity is statistical: heavy loss should not IMPROVE
// average quality dramatically (sanity of the fault model), and zero loss
// must equal the fault-free run exactly.
func TestSolveLossZeroIsNoop(t *testing.T) {
	inst, err := gen.Uniform{M: 12, NC: 50}.Generate(7)
	if err != nil {
		t.Fatal(err)
	}
	a, ra, err := Solve(inst, Config{K: 16}, WithSeed(4))
	if err != nil {
		t.Fatal(err)
	}
	b, rb, err := Solve(inst, Config{K: 16}, WithSeed(4), WithFaults(congest.Faults{DropProb: 0}))
	if err != nil {
		t.Fatal(err)
	}
	if a.Cost(inst) != b.Cost(inst) || ra.Net != rb.Net {
		t.Fatal("zero drop probability changed the run")
	}
}

// TestSolveFeasibleUnderLossProperty fuzzes (seed, loss rate) pairs.
func TestSolveFeasibleUnderLossProperty(t *testing.T) {
	inst, err := gen.Uniform{M: 8, NC: 30, Density: 0.5, MinDegree: 1}.Generate(11)
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed int64, pRaw uint8) bool {
		p := float64(pRaw) / 255
		sol, _, err := Solve(inst, Config{K: 4}, WithSeed(seed), WithFaults(congest.Faults{DropProb: p}))
		if err != nil {
			return false
		}
		return fl.Validate(inst, sol) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestSolveParallelLossyEquivalence combines I5 and I7: the pooled
// parallel runner must stay byte-identical to the sequential one — stats,
// costs, and per-client assignments — even with message drops injected,
// for every worker-pool size.
func TestSolveParallelLossyEquivalence(t *testing.T) {
	inst, err := gen.Uniform{M: 14, NC: 70, Density: 0.35, MinDegree: 1}.Generate(21)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []float64{0, 0.3} {
		ss, rs, err := Solve(inst, Config{K: 16}, WithSeed(8), WithFaults(congest.Faults{DropProb: p}))
		if err != nil {
			t.Fatalf("p=%.1f sequential: %v", p, err)
		}
		for _, workers := range []int{1, 2, 7, 0} { // 0 = GOMAXPROCS
			sp, rp, err := Solve(inst, Config{K: 16}, WithSeed(8), WithFaults(congest.Faults{DropProb: p}),
				WithParallel(true), WithShards(workers))
			if err != nil {
				t.Fatalf("p=%.1f workers=%d: %v", p, workers, err)
			}
			if rs.Net != rp.Net {
				t.Fatalf("p=%.1f workers=%d: net stats diverged: %+v vs %+v",
					p, workers, rs.Net, rp.Net)
			}
			if ss.Cost(inst) != sp.Cost(inst) {
				t.Fatalf("p=%.1f workers=%d: cost %d vs %d",
					p, workers, ss.Cost(inst), sp.Cost(inst))
			}
			for j := range ss.Assign {
				if ss.Assign[j] != sp.Assign[j] {
					t.Fatalf("p=%.1f workers=%d: assignment differs at client %d",
						p, workers, j)
				}
			}
		}
	}
}

func TestSolveBestPicksMinimum(t *testing.T) {
	inst, err := gen.Uniform{M: 20, NC: 100}.Generate(9)
	if err != nil {
		t.Fatal(err)
	}
	const runs = 6
	best, rep, err := SolveBest(inst, Config{K: 9}, 100, runs)
	if err != nil {
		t.Fatal(err)
	}
	if rep == nil {
		t.Fatal("nil report")
	}
	bestCost := best.Cost(inst)
	for s := 0; s < runs; s++ {
		sol, _, err := Solve(inst, Config{K: 9}, WithSeed(100+int64(s)))
		if err != nil {
			t.Fatal(err)
		}
		if sol.Cost(inst) < bestCost {
			t.Fatalf("seed %d beats SolveBest: %d < %d", 100+s, sol.Cost(inst), bestCost)
		}
	}
	if _, _, err := SolveBest(inst, Config{K: 9}, 1, 0); err == nil {
		t.Fatal("runs=0 should fail")
	}
}

// TestFaultWindowReachesTail pins the window rule WithFaults documents: a
// DropProb or CorruptProb with no ...UntilRound window is clamped to the
// phase sweep, so it equals an explicit ProtoRounds window, while an
// explicit window past the sweep carries the fault into the
// cleanup-and-repair tail and strictly adds faulted frames on the same
// seed.
func TestFaultWindowReachesTail(t *testing.T) {
	inst, err := gen.Uniform{M: 12, NC: 60}.Generate(3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{K: 16}
	d, err := Derive(inst, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		faults func(until int) congest.Faults
		count  func(congest.Stats) int64
	}{
		{"drop",
			func(until int) congest.Faults { return congest.Faults{DropProb: 0.1, DropUntilRound: until} },
			func(s congest.Stats) int64 { return s.Dropped }},
		{"corrupt",
			func(until int) congest.Faults { return congest.Faults{CorruptProb: 0.3, CorruptUntilRound: until} },
			func(s congest.Stats) int64 { return s.Corrupted }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(until int) *Report {
				_, rep, err := Solve(inst, cfg, WithSeed(5), WithFaults(tc.faults(until)))
				if err != nil {
					t.Fatalf("until=%d: %v", until, err)
				}
				return rep
			}
			zero, sweep, tail := run(0), run(d.ProtoRounds), run(1<<20)
			if zero.Net != sweep.Net || zero.Cost != sweep.Cost {
				t.Fatalf("zero window differs from an explicit ProtoRounds=%d window:\n%+v\n%+v",
					d.ProtoRounds, zero.Net, sweep.Net)
			}
			if got, base := tc.count(tail.Net), tc.count(zero.Net); got <= base {
				t.Fatalf("explicit tail window faulted %d frames, sweep-only run %d: the window never reached the tail", got, base)
			}
		})
	}
}
