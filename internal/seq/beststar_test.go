package seq

import (
	"math/rand"
	"slices"
	"testing"

	"dfl/internal/fl"
)

// fullScanStar is the reference for bestStarFor and bestCapStarFor: the
// prefix scan over facility i's whole row, with no stop rule. charge(t)
// is the opening charge of a t-client prefix.
func fullScanStar(inst *fl.Instance, i int, active []bool, charge func(t int) int64) (num, den int64, star []int) {
	var sum, t int64
	bestLen := 0
	for _, e := range inst.FacilityEdges(i) {
		if !active[e.To] {
			continue
		}
		star = append(star, e.To)
		sum = fl.AddSat(sum, e.Cost)
		t++
		total := fl.AddSat(sum, charge(int(t)))
		if bestLen == 0 || fl.RatioLess(total, t, num, den) {
			num, den, bestLen = total, t, len(star)
		}
	}
	return num, den, star[:bestLen]
}

// TestBestStarStopMatchesFullScan compares the two best-star scans, which
// stop at the first client that cannot improve the ratio, with a scan of
// the whole row. Costs come from a small palette, so prefixes tie with the
// best ratio, plus zero and fl.MaxCost; about a third of the clients are
// inactive, facilities are open or closed, and capacitated rows start at
// every load and copy count around a copy boundary.
func TestBestStarStopMatchesFullScan(t *testing.T) {
	costs := []int64{0, 1, 1, 2, 2, 3, 4, 6, 9, 1 << 20, fl.MaxCost - 1, fl.MaxCost}
	facCosts := []int64{0, 1, 3, 5, 12, fl.MaxCost}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 400; trial++ {
		m, nc := 1+rng.Intn(3), 1+rng.Intn(40)
		fac := make([]int64, m)
		for i := range fac {
			fac[i] = facCosts[rng.Intn(len(facCosts))]
		}
		var edges []fl.RawEdge
		for i := 0; i < m; i++ {
			for j := 0; j < nc; j++ {
				if rng.Intn(4) != 0 {
					edges = append(edges, fl.RawEdge{Facility: i, Client: j, Cost: costs[rng.Intn(len(costs))]})
				}
			}
		}
		inst := mustInstance(t, fac, nc, edges)
		active := make([]bool, nc)
		for j := range active {
			active[j] = rng.Intn(3) != 0
		}
		for i := 0; i < m; i++ {
			fi := inst.FacilityCost(i)
			for _, open := range []bool{false, true} {
				openCost := fi
				if open {
					openCost = 0
				}
				wantNum, wantDen, wantStar := fullScanStar(inst, i, active, func(int) int64 { return openCost })
				num, den, star := bestStarFor(inst, i, open, active)
				if num != wantNum || den != wantDen || !slices.Equal(star, wantStar) {
					t.Fatalf("trial %d facility %d open %v: bestStarFor = %d/%d %v, full scan %d/%d %v",
						trial, i, open, num, den, star, wantNum, wantDen, wantStar)
				}
			}
			for cap := 1; cap <= 4; cap++ {
				for load := 0; load <= 2*cap; load++ {
					for _, copies := range []int{fl.CopiesNeeded(load, cap), fl.CopiesNeeded(load, cap) + 1} {
						charge := func(t int) int64 {
							return fl.MulSat(int64(max(fl.CopiesNeeded(load+t, cap)-copies, 0)), fi)
						}
						wantNum, wantDen, wantStar := fullScanStar(inst, i, active, charge)
						num, den, star := bestCapStarFor(inst, i, cap, copies, load, active)
						if num != wantNum || den != wantDen || !slices.Equal(star, wantStar) {
							t.Fatalf("trial %d facility %d cap %d load %d copies %d: bestCapStarFor = %d/%d %v, full scan %d/%d %v",
								trial, i, cap, load, copies, num, den, star, wantNum, wantDen, wantStar)
						}
					}
				}
			}
		}
	}
}

// TestGreedyTieBreaksToLowerID pins Greedy's tie-break: of two stars with
// exactly equal effectiveness, the facility with the lower id wins. The
// instance is 24 disjoint gadgets. Gadget g has facilities 2g and 2g+1,
// both connected to clients 2g and 2g+1; one opens for 2a and connects at
// cost 1, the other opens for 2a-2 and connects at cost 2, where a = g+2.
// Each facility's best star is both clients at a+1 per client, so the two
// tie, no other gadget ties with them, and whichever wins leaves its
// gadget nothing to do. The cheaper opening goes to the lower id in even
// gadgets and to the higher id in odd ones, so neither cost can stand in
// for the id. A tie-break by coin flip passes with probability 2^-24.
func TestGreedyTieBreaksToLowerID(t *testing.T) {
	const gadgets = 24
	fac := make([]int64, 2*gadgets)
	var edges []fl.RawEdge
	for g := 0; g < gadgets; g++ {
		a := int64(g + 2)
		cheapOpen, cheapLink := 2*g, 2*g+1
		if g%2 == 1 {
			cheapOpen, cheapLink = cheapLink, cheapOpen
		}
		fac[cheapOpen], fac[cheapLink] = 2*a-2, 2*a
		for _, j := range []int{2 * g, 2*g + 1} {
			edges = append(edges,
				fl.RawEdge{Facility: cheapOpen, Client: j, Cost: 2},
				fl.RawEdge{Facility: cheapLink, Client: j, Cost: 1})
		}
	}
	inst := mustInstance(t, fac, 2*gadgets, edges)
	sol, err := Greedy(inst)
	if err != nil {
		t.Fatal(err)
	}
	for g := 0; g < gadgets; g++ {
		lo := 2 * g
		if !sol.Open[lo] || sol.Open[lo+1] || sol.Assign[2*g] != lo || sol.Assign[2*g+1] != lo {
			t.Errorf("gadget %d: open %v/%v, clients on %d and %d, want both on facility %d and %d closed",
				g, sol.Open[lo], sol.Open[lo+1], sol.Assign[2*g], sol.Assign[2*g+1], lo, lo+1)
		}
	}
}
