package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"dfl/internal/congest"
	"dfl/internal/fl"
	"dfl/internal/gen"
	"dfl/internal/seq"
)

func TestSolveSoftCapFeasible(t *testing.T) {
	inst, err := gen.Uniform{M: 12, NC: 60}.Generate(4)
	if err != nil {
		t.Fatal(err)
	}
	for _, cap := range []int{1, 3, 10, 1000} {
		sol, rep, err := SolveSoftCap(inst, Config{K: 16, SoftCapacity: cap}, WithSeed(2))
		if err != nil {
			t.Fatalf("cap=%d: %v", cap, err)
		}
		if err := fl.ValidateCap(inst, cap, sol); err != nil {
			t.Fatalf("cap=%d: %v", cap, err)
		}
		if rep.Net.Rounds != rep.Derived.TotalRounds {
			t.Fatalf("cap=%d: rounds %d", cap, rep.Net.Rounds)
		}
	}
}

func TestSolveSoftCapValidatesConfig(t *testing.T) {
	inst := tinyForConfig(t)
	if _, _, err := SolveSoftCap(inst, Config{K: 4}); err == nil {
		t.Fatal("SolveSoftCap without capacity should fail")
	}
	if _, _, err := Solve(inst, Config{K: 4, SoftCapacity: 2}); err == nil {
		t.Fatal("Solve with capacity should point to SolveSoftCap")
	}
	if _, _, err := SolveSoftCap(inst, Config{K: 4, SoftCapacity: -1}); err == nil {
		t.Fatal("negative capacity should fail")
	}
}

// TestSolveSoftCapHugeCapMatchesUncapacitated: with capacity >= nc, the
// capacitated protocol must behave exactly like the uncapacitated one.
func TestSolveSoftCapHugeCapMatchesUncapacitated(t *testing.T) {
	inst, err := gen.Uniform{M: 10, NC: 50}.Generate(6)
	if err != nil {
		t.Fatal(err)
	}
	capSol, capRep, err := SolveSoftCap(inst, Config{K: 16, SoftCapacity: inst.NC() + 1}, WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	plain, plainRep, err := Solve(inst, Config{K: 16}, WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	if capSol.Cost(inst) != plain.Cost(inst) {
		t.Fatalf("cost %d != uncapacitated %d", capSol.Cost(inst), plain.Cost(inst))
	}
	if capRep.Net != plainRep.Net {
		t.Fatalf("network stats diverged: %+v vs %+v", capRep.Net, plainRep.Net)
	}
	for j := range capSol.Assign {
		if capSol.Assign[j] != plain.Assign[j] {
			t.Fatalf("assignment differs at client %d", j)
		}
	}
}

// TestSolveSoftCapTightCapacityOpensMoreCopies: total copies must grow as
// the capacity shrinks, and loads must respect it.
func TestSolveSoftCapTightCapacityOpensMoreCopies(t *testing.T) {
	inst, err := gen.Star{M: 6, NC: 48}.Generate(1)
	if err != nil {
		t.Fatal(err)
	}
	copiesAt := func(cap int) int {
		sol, _, err := SolveSoftCap(inst, Config{K: 16, SoftCapacity: cap}, WithSeed(1))
		if err != nil {
			t.Fatal(err)
		}
		if err := fl.ValidateCap(inst, cap, sol); err != nil {
			t.Fatal(err)
		}
		total := 0
		for _, c := range sol.Copies {
			total += c
		}
		return total
	}
	loose := copiesAt(48)
	tight := copiesAt(4)
	if tight < 48/4 {
		t.Fatalf("cap=4 needs at least 12 copies, got %d", tight)
	}
	if loose >= tight {
		t.Fatalf("loose capacity should use fewer copies: %d vs %d", loose, tight)
	}
}

// TestSolveSoftCapNeverBelowUncapOPT: SCFL cost dominates the exact UFL
// optimum on any instance and capacity.
func TestSolveSoftCapNeverBelowUncapOPT(t *testing.T) {
	f := func(seed int64, capRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		m := rng.Intn(4) + 1
		nc := rng.Intn(7) + 1
		fac := make([]int64, m)
		for i := range fac {
			fac[i] = rng.Int63n(40)
		}
		var edges []fl.RawEdge
		for j := 0; j < nc; j++ {
			perm := rng.Perm(m)
			for _, i := range perm[:rng.Intn(m)+1] {
				edges = append(edges, fl.RawEdge{Facility: i, Client: j, Cost: rng.Int63n(30) + 1})
			}
		}
		inst, err := fl.New("prop", fac, nc, edges)
		if err != nil {
			return false
		}
		cap := int(capRaw%5) + 1
		sol, _, err := SolveSoftCap(inst, Config{K: 9, SoftCapacity: cap}, WithSeed(seed))
		if err != nil {
			return false
		}
		if fl.ValidateCap(inst, cap, sol) != nil {
			return false
		}
		opt, err := seq.Exact(inst)
		if err != nil {
			return false
		}
		return sol.Cost(inst) >= opt.Cost(inst)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestSolveSoftCapLossyStillFeasible combines the two extensions: capacity
// plus message loss must still produce a feasible capacitated solution.
func TestSolveSoftCapLossyStillFeasible(t *testing.T) {
	inst, err := gen.Uniform{M: 8, NC: 40}.Generate(9)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []float64{0.3, 1.0} {
		sol, _, err := SolveSoftCap(inst, Config{K: 9, SoftCapacity: 3},
			WithSeed(5), WithFaults(congest.Faults{DropProb: p}))
		if err != nil {
			t.Fatalf("p=%.1f: %v", p, err)
		}
		if err := fl.ValidateCap(inst, 3, sol); err != nil {
			t.Fatalf("p=%.1f: %v", p, err)
		}
	}
}
