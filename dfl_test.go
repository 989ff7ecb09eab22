package dfl_test

import (
	"bytes"
	"sync"
	"testing"

	"dfl"
)

// TestPublicAPIEndToEnd drives the façade the way the README quickstart
// does: generate, bound, solve distributed + sequential, validate, and
// round-trip through the text format.
func TestPublicAPIEndToEnd(t *testing.T) {
	inst, err := dfl.Uniform{M: 10, NC: 40}.Generate(1)
	if err != nil {
		t.Fatal(err)
	}
	st := dfl.Stats(inst)
	if st.M != 10 || st.NC != 40 {
		t.Fatalf("stats shape: %+v", st)
	}

	lb, err := dfl.LowerBound(inst)
	if err != nil {
		t.Fatal(err)
	}
	if lb <= 0 {
		t.Fatalf("lower bound = %d", lb)
	}

	sol, rep, err := dfl.SolveDistributed(inst, dfl.DistConfig{K: 16},
		dfl.WithSeed(1), dfl.WithParallel(true))
	if err != nil {
		t.Fatal(err)
	}
	if err := dfl.Validate(inst, sol); err != nil {
		t.Fatal(err)
	}
	if sol.Cost(inst) < lb {
		t.Fatalf("cost %d below LP bound %d", sol.Cost(inst), lb)
	}
	if rep.Net.Rounds != rep.Derived.TotalRounds {
		t.Fatalf("report rounds %d != derived %d", rep.Net.Rounds, rep.Derived.TotalRounds)
	}

	d, err := dfl.DeriveDistParams(inst, dfl.DistConfig{K: 16})
	if err != nil {
		t.Fatal(err)
	}
	if d.TotalRounds != rep.Derived.TotalRounds {
		t.Fatalf("derive mismatch: %d vs %d", d.TotalRounds, rep.Derived.TotalRounds)
	}

	for name, solve := range map[string]func(*dfl.Instance) (*dfl.Solution, error){
		"greedy":     dfl.SolveGreedy,
		"greedyfast": dfl.SolveGreedyFast,
		"jv":         dfl.SolveJainVazirani,
		"jms":        dfl.SolveJMS,
		"mp":         dfl.SolveMettuPlaxton,
		"exact":      dfl.SolveExact,
		"cheapest":   dfl.SolveCheapestPerClient,
		"openall":    dfl.SolveOpenAll,
	} {
		s, err := solve(inst)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := dfl.Validate(inst, s); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if s.Cost(inst) < lb {
			t.Fatalf("%s cost %d below LP bound %d", name, s.Cost(inst), lb)
		}
	}

	polished, err := dfl.SolveLocalSearch(inst, sol, dfl.LocalSearchConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if polished.Cost(inst) > sol.Cost(inst) {
		t.Fatal("local search worsened the distributed solution")
	}

	var buf bytes.Buffer
	if err := dfl.WriteInstance(&buf, inst); err != nil {
		t.Fatal(err)
	}
	back, err := dfl.ReadInstance(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.M() != inst.M() || back.NC() != inst.NC() || back.EdgeCount() != inst.EdgeCount() {
		t.Fatal("text round trip changed the instance")
	}

	// Solution round trip through the public API.
	var solBuf bytes.Buffer
	if err := dfl.WriteSolution(&solBuf, sol); err != nil {
		t.Fatal(err)
	}
	solBack, err := dfl.ReadSolution(&solBuf)
	if err != nil {
		t.Fatal(err)
	}
	if err := dfl.Validate(inst, solBack); err != nil {
		t.Fatal(err)
	}
	if solBack.Cost(inst) != sol.Cost(inst) {
		t.Fatal("solution round trip changed cost")
	}

	// Capacitated mode through the façade.
	capSol, _, err := dfl.SolveDistributedSoftCap(inst,
		dfl.DistConfig{K: 9, SoftCapacity: 3}, dfl.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := dfl.ValidateCap(inst, 3, capSol); err != nil {
		t.Fatal(err)
	}
	capGreedy, err := dfl.SolveSoftCapGreedy(inst, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := dfl.ValidateCap(inst, 3, capGreedy); err != nil {
		t.Fatal(err)
	}

	// Lossy mode + best-of through the façade.
	lossy, _, err := dfl.SolveDistributedBest(inst, dfl.DistConfig{K: 9}, 1, 3,
		dfl.WithFaults(dfl.FaultSchedule{DropProb: 0.3}))
	if err != nil {
		t.Fatal(err)
	}
	if err := dfl.Validate(inst, lossy); err != nil {
		t.Fatal(err)
	}
}

func TestPublicAPIConstructors(t *testing.T) {
	inst, err := dfl.NewInstance("api", []int64{5, 7}, 2, []dfl.RawEdge{
		{Facility: 0, Client: 0, Cost: 1},
		{Facility: 1, Client: 1, Cost: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if inst.M() != 2 || inst.NC() != 2 {
		t.Fatalf("shape (%d,%d)", inst.M(), inst.NC())
	}

	dense, err := dfl.NewDenseInstance("dense", []int64{5}, [][]int64{{3}})
	if err != nil {
		t.Fatal(err)
	}
	if dense.EdgeCount() != 1 {
		t.Fatal("dense constructor lost edges")
	}

	if _, err := dfl.GeneratorByName("euclidean", 5, 10); err != nil {
		t.Fatal(err)
	}
	if _, err := dfl.GeneratorByName("bogus", 5, 10); err == nil {
		t.Fatal("unknown family should fail")
	}
}

// TestPublicAPISharded drives the distributed-deployment surface: solve an
// instance shard-by-shard over the in-process reference transport, round-
// trip each fragment through its wire codec, assemble, and compare against
// the single-process solver on the same seed.
func TestPublicAPISharded(t *testing.T) {
	inst, err := dfl.Uniform{M: 8, NC: 32}.Generate(4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := dfl.DistConfig{K: 8}
	want, _, err := dfl.SolveDistributed(inst, cfg, dfl.WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}

	const k = 3
	n := inst.M() + inst.NC()
	spans := dfl.SplitSpans(n, k)
	net, err := dfl.NewChanNetwork(n, spans)
	if err != nil {
		t.Fatal(err)
	}
	frags := make([]*dfl.Fragment, k)
	errs := make([]error, k)
	var wg sync.WaitGroup
	for i := range spans {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			frag, err := dfl.SolveShard(inst, cfg, spans[i], 3, net.Shard(i))
			if err != nil {
				errs[i] = err
				net.Abort(err)
				return
			}
			frags[i], errs[i] = dfl.DecodeShardFragment(frag.Encode(nil), inst.M(), inst.NC())
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
	}
	sol, rep, err := dfl.AssembleShards(inst, cfg, frags)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Cost(inst) != want.Cost(inst) {
		t.Fatalf("sharded cost %d != single-process %d", sol.Cost(inst), want.Cost(inst))
	}
	if err := dfl.Certify(inst, sol, rep); err != nil {
		t.Fatal(err)
	}
}
