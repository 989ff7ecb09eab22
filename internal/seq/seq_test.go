package seq

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"dfl/internal/fl"
	"dfl/internal/gen"
	"dfl/internal/lp"
)

func mustInstance(t *testing.T, fac []int64, nc int, edges []fl.RawEdge) *fl.Instance {
	t.Helper()
	inst, err := fl.New("t", fac, nc, edges)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// tiny: f0 cost 10 (c0@1 c1@2 c2@9), f1 cost 4 (c1@1 c2@2).
// OPT: open both, assignments 0->f0(1), 1->f1(1), 2->f1(2): 10+4+4 = 18?
// Or open f0 only: 10+1+2+9 = 22. Open f1 only: infeasible (c0 uncovered).
// Open both: 14+1+1+2 = 18. So OPT = 18.
func tiny(t *testing.T) *fl.Instance {
	t.Helper()
	return mustInstance(t, []int64{10, 4}, 3, []fl.RawEdge{
		{Facility: 0, Client: 0, Cost: 1},
		{Facility: 0, Client: 1, Cost: 2},
		{Facility: 0, Client: 2, Cost: 9},
		{Facility: 1, Client: 1, Cost: 1},
		{Facility: 1, Client: 2, Cost: 2},
	})
}

type solver func(*fl.Instance) (*fl.Solution, error)

func solvers() map[string]solver {
	return map[string]solver{
		"greedy":   Greedy,
		"jv":       JainVazirani,
		"jms":      JMS,
		"exact":    Exact,
		"openall":  OpenAll,
		"cheapest": CheapestPerClient,
		"localsearch": func(inst *fl.Instance) (*fl.Solution, error) {
			return LocalSearch(inst, nil, LocalSearchConfig{})
		},
	}
}

func TestSolversFeasibleOnTiny(t *testing.T) {
	inst := tiny(t)
	for name, s := range solvers() {
		t.Run(name, func(t *testing.T) {
			sol, err := s(inst)
			if err != nil {
				t.Fatal(err)
			}
			if err := fl.Validate(inst, sol); err != nil {
				t.Fatalf("invalid solution: %v", err)
			}
			cost := sol.Cost(inst)
			if cost < 18 {
				t.Fatalf("cost %d below OPT 18 — solver is cheating", cost)
			}
			if cost > 22 {
				t.Fatalf("cost %d above open-everything bound", cost)
			}
		})
	}
}

func TestExactFindsOptimumOnTiny(t *testing.T) {
	inst := tiny(t)
	sol, err := Exact(inst)
	if err != nil {
		t.Fatal(err)
	}
	if got := sol.Cost(inst); got != 18 {
		t.Fatalf("Exact cost = %d, want 18", got)
	}
	if !sol.Open[0] || !sol.Open[1] {
		t.Fatalf("Exact open = %v, want both", sol.Open)
	}
}

func TestSolversInfeasible(t *testing.T) {
	inst := mustInstance(t, []int64{5}, 2, []fl.RawEdge{{Facility: 0, Client: 0, Cost: 1}})
	for name, s := range solvers() {
		t.Run(name, func(t *testing.T) {
			if _, err := s(inst); err == nil {
				t.Fatal("want infeasibility error")
			}
		})
	}
}

func TestGreedyPrefersEffectiveStar(t *testing.T) {
	// Facility 0: cost 2, serves both clients at 1 -> eff (2+1+1)/2 = 2.
	// Facility 1: cost 1, serves client 0 at 1 -> eff (1+1)/1 = 2.
	// Facility 2: cost 30 decoy.
	// Greedy should cover both clients with facility 0 (eff tie broken by
	// earlier facility winning strict comparison order).
	inst := mustInstance(t, []int64{2, 1, 30}, 2, []fl.RawEdge{
		{Facility: 0, Client: 0, Cost: 1},
		{Facility: 0, Client: 1, Cost: 1},
		{Facility: 1, Client: 0, Cost: 1},
		{Facility: 2, Client: 0, Cost: 1},
		{Facility: 2, Client: 1, Cost: 1},
	})
	sol, err := Greedy(inst)
	if err != nil {
		t.Fatal(err)
	}
	if got := sol.Cost(inst); got != 4 {
		t.Fatalf("greedy cost = %d, want 4", got)
	}
	if !sol.Open[0] || sol.Open[2] {
		t.Fatalf("open = %v", sol.Open)
	}
}

func TestGreedyReusesOpenFacility(t *testing.T) {
	// After opening a facility its cost is sunk; the second star through it
	// must be charged only connection costs.
	// f0 cost 100: c0@1, c1@200. f1 cost 1: c1@150.
	// Step 1: best eff: f0 with {c0}: 101; f1 with {c1}: 151; f0 with both:
	// (100+1+200)/2 = 150.5 -> f0 both actually wins (150.5 < 151 ... and
	// vs 101? 101 < 150.5 so f0 {c0} first). After that, f0 is open so c1
	// via f0 costs 200 vs f1 151 -> f1 wins.
	inst := mustInstance(t, []int64{100, 1}, 2, []fl.RawEdge{
		{Facility: 0, Client: 0, Cost: 1},
		{Facility: 0, Client: 1, Cost: 200},
		{Facility: 1, Client: 1, Cost: 150},
	})
	sol, err := Greedy(inst)
	if err != nil {
		t.Fatal(err)
	}
	if got := sol.Cost(inst); got != 100+1+1+150 {
		t.Fatalf("cost = %d, want 252", got)
	}
}

func TestExactTooLarge(t *testing.T) {
	fac := make([]int64, MaxExactFacilities+1)
	for i := range fac {
		fac[i] = 1
	}
	edges := make([]fl.RawEdge, len(fac))
	for i := range edges {
		edges[i] = fl.RawEdge{Facility: i, Client: 0, Cost: 1}
	}
	inst := mustInstance(t, fac, 1, edges)
	if _, err := Exact(inst); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("err = %v, want ErrTooLarge", err)
	}
}

func TestLocalSearchImprovesStart(t *testing.T) {
	inst, err := gen.Clustered{M: 12, NC: 60, Clusters: 3}.Generate(3)
	if err != nil {
		t.Fatal(err)
	}
	start, err := OpenAll(inst)
	if err != nil {
		t.Fatal(err)
	}
	improved, err := LocalSearch(inst, start, LocalSearchConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if improved.Cost(inst) > start.Cost(inst) {
		t.Fatalf("local search worsened: %d -> %d", start.Cost(inst), improved.Cost(inst))
	}
}

func TestLocalSearchRejectsInvalidStart(t *testing.T) {
	inst := tiny(t)
	bad := fl.NewSolution(inst)
	if _, err := LocalSearch(inst, bad, LocalSearchConfig{}); err == nil {
		t.Fatal("invalid start should be rejected")
	}
}

// randomInstance builds a feasible random instance for property tests.
func randomInstance(rng *rand.Rand, maxM, maxNC int) *fl.Instance {
	m := rng.Intn(maxM) + 1
	nc := rng.Intn(maxNC) + 1
	fac := make([]int64, m)
	for i := range fac {
		fac[i] = rng.Int63n(80)
	}
	var edges []fl.RawEdge
	for j := 0; j < nc; j++ {
		perm := rng.Perm(m)
		for _, i := range perm[:rng.Intn(m)+1] {
			edges = append(edges, fl.RawEdge{Facility: i, Client: j, Cost: rng.Int63n(60) + 1})
		}
	}
	inst, err := fl.New("prop", fac, nc, edges)
	if err != nil {
		panic(err)
	}
	return inst
}

// TestSolversSandwich property-tests every solver between the LP lower
// bound and the exact optimum (solver >= OPT >= LP bound), the key
// cross-module invariant.
func TestSolversSandwich(t *testing.T) {
	ss := solvers()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		inst := randomInstance(rng, 6, 8)
		opt, err := Exact(inst)
		if err != nil {
			return false
		}
		optCost := opt.Cost(inst)
		lb, err := lp.LowerBound(inst)
		if err != nil || lb > optCost {
			return false
		}
		for name, s := range ss {
			sol, err := s(inst)
			if err != nil {
				t.Logf("%s: %v", name, err)
				return false
			}
			if fl.Validate(inst, sol) != nil {
				t.Logf("%s: invalid", name)
				return false
			}
			if sol.Cost(inst) < optCost {
				t.Logf("%s: cost %d below OPT %d", name, sol.Cost(inst), optCost)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestGreedyLogBound checks greedy's O(log n) guarantee (with the H_n
// harmonic constant) against the exact optimum on small instances.
func TestGreedyLogBound(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		inst := randomInstance(rng, 5, 10)
		opt, err := Exact(inst)
		if err != nil {
			return false
		}
		g, err := Greedy(inst)
		if err != nil {
			return false
		}
		// H_n <= 1 + ln(n); be generous with the constant.
		hn := 1.0
		for i := 2; i <= inst.NC(); i++ {
			hn += 1.0 / float64(i)
		}
		return float64(g.Cost(inst)) <= (hn+1)*float64(opt.Cost(inst))+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestJVConstantFactorOnMetric checks the 3-approximation of Jain-Vazirani
// on Euclidean (metric, complete) instances against the LP bound.
func TestJVConstantFactorOnMetric(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		inst, err := gen.Euclidean{M: 8, NC: 40}.Generate(seed)
		if err != nil {
			t.Fatal(err)
		}
		sol, err := JainVazirani(inst)
		if err != nil {
			t.Fatal(err)
		}
		lb, err := lp.LowerBound(inst)
		if err != nil {
			t.Fatal(err)
		}
		if lb <= 0 {
			t.Fatal("nonpositive lower bound")
		}
		ratio := float64(sol.Cost(inst)) / float64(lb)
		if ratio > 3.01 {
			t.Fatalf("seed %d: JV ratio vs LP = %.3f > 3", seed, ratio)
		}
	}
}

// TestJMSBeatsOrMatchesOpenAll sanity-checks the rebate greedy on several
// families.
func TestJMSOnFamilies(t *testing.T) {
	gens := map[string]gen.Generator{
		"uniform":   gen.Uniform{M: 10, NC: 40},
		"euclidean": gen.Euclidean{M: 10, NC: 40},
		"clustered": gen.Clustered{M: 10, NC: 40, Clusters: 3},
	}
	for name, g := range gens {
		t.Run(name, func(t *testing.T) {
			inst, err := g.Generate(11)
			if err != nil {
				t.Fatal(err)
			}
			jms, err := JMS(inst)
			if err != nil {
				t.Fatal(err)
			}
			if err := fl.Validate(inst, jms); err != nil {
				t.Fatal(err)
			}
			all, err := OpenAll(inst)
			if err != nil {
				t.Fatal(err)
			}
			if jms.Cost(inst) > all.Cost(inst) {
				t.Fatalf("JMS (%d) worse than open-all (%d)", jms.Cost(inst), all.Cost(inst))
			}
		})
	}
}

// TestExactMatchesBruteForce cross-validates the branch-and-bound against
// plain subset enumeration.
func TestExactMatchesBruteForce(t *testing.T) {
	brute := func(inst *fl.Instance) int64 {
		best := int64(1<<62 - 1)
		m := inst.M()
		for mask := 1; mask < 1<<m; mask++ {
			var total int64
			for i := 0; i < m; i++ {
				if mask&(1<<i) != 0 {
					total += inst.FacilityCost(i)
				}
			}
			ok := true
			for j := 0; j < inst.NC(); j++ {
				bc := int64(-1)
				for _, e := range inst.ClientEdges(j) {
					if mask&(1<<e.To) != 0 && (bc < 0 || e.Cost < bc) {
						bc = e.Cost
					}
				}
				if bc < 0 {
					ok = false
					break
				}
				total += bc
			}
			if ok && total < best {
				best = total
			}
		}
		return best
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		inst := randomInstance(rng, 7, 9)
		sol, err := Exact(inst)
		if err != nil {
			return false
		}
		return sol.Cost(inst) == brute(inst)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
