package dfl_test

import (
	"testing"

	"dfl"
)

// TestPublicAPIEndToEnd drives the façade the way the README quickstart
// does: generate, bound, solve distributed + sequential, and validate.
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

	for name, solve := range map[string]func(*dfl.Instance) (*dfl.Solution, error){
		"greedy": dfl.SolveGreedy,
		"jv":     dfl.SolveJainVazirani,
		"jms":    dfl.SolveJMS,
		"exact":  dfl.SolveExact,
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

	// Capacitated mode through the façade.
	capSol, _, err := dfl.SolveDistributedSoftCap(inst,
		dfl.DistConfig{K: 9, SoftCapacity: 3}, dfl.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := dfl.ValidateCap(inst, 3, capSol); err != nil {
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
