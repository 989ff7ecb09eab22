// Package seq implements the sequential (centralized) facility-location
// algorithms the distributed algorithm is measured against: the greedy star
// algorithm (Hochbaum, O(log n)-approximate on non-metric instances),
// Jain-Vazirani primal-dual (3-approximate on metric instances), the
// Jain-Mahdian-Saberi dual-fitting greedy (1.861 on metric instances),
// local search, exact branch-and-bound for small facility counts, and the
// trivial baselines.
package seq

import (
	"errors"
	"math"

	"dfl/internal/fl"
)

// ErrInfeasible is returned when some client has no incident facility.
var ErrInfeasible = errors.New("seq: instance has a client with no incident facility")

// Greedy runs the sequential greedy star algorithm: repeatedly pick the
// star (facility plus a subset of its unconnected clients) with minimum
// cost-effectiveness (opening cost, counted once, plus connection costs,
// divided by the number of clients), open it, connect its clients. This is
// the algorithm whose distributed quantization is the paper's contribution,
// so it doubles as the "sequential upper baseline" in every experiment.
func Greedy(inst *fl.Instance) (*fl.Solution, error) {
	if !inst.Connectable() {
		return nil, ErrInfeasible
	}
	m, nc := inst.M(), inst.NC()
	sol := fl.NewSolution(inst)
	active := make([]bool, nc)
	for j := range active {
		active[j] = true
	}
	remaining := nc

	for remaining > 0 {
		bestFac := -1
		var bestNum, bestDen int64 // best effectiveness = bestNum/bestDen
		var bestStar []int
		for i := 0; i < m; i++ {
			num, den, star := bestStarFor(inst, i, sol.Open[i], active)
			if den == 0 {
				continue
			}
			if bestFac == -1 || fl.RatioLess(num, den, bestNum, bestDen) {
				bestFac, bestNum, bestDen = i, num, den
				bestStar = star
			}
		}
		if bestFac == -1 {
			return nil, errors.New("seq: greedy stalled with unconnected clients")
		}
		sol.Open[bestFac] = true
		for _, j := range bestStar {
			sol.Assign[j] = bestFac
			active[j] = false
			remaining--
		}
	}
	return sol, nil
}

// bestStarFor computes facility i's best star against the active clients:
// the prefix (by ascending connection cost) minimizing
// (openCost + sum costs) / size. It returns the numerator, denominator
// (0 when i has no active client), and the prefix's client ids.
//
// The scan stops at the first active client whose cost is at least the
// best ratio so far (see stopScan), so it reads about the star, not the row.
func bestStarFor(inst *fl.Instance, i int, alreadyOpen bool, active []bool) (num, den int64, star []int) {
	openCost := inst.FacilityCost(i)
	if alreadyOpen {
		openCost = 0
	}
	var (
		sum           = openCost
		bestNum       int64
		bestDen       int64
		bestLen       int
		t             int64
		haveCandidate bool
	)
	row := inst.FacilityEdges(i)
	for _, e := range row { // sorted by ascending cost
		if !active[e.To] {
			continue
		}
		if haveCandidate && stopScan(e.Cost, bestNum, bestDen, len(row)) {
			break
		}
		star = append(star, e.To)
		sum = fl.AddSat(sum, e.Cost)
		t++
		if !haveCandidate || fl.RatioLess(sum, t, bestNum, bestDen) {
			bestNum, bestDen, bestLen = sum, t, len(star)
			haveCandidate = true
		}
	}
	if !haveCandidate {
		return 0, 0, star[:0]
	}
	return bestNum, bestDen, star[:bestLen]
}

// stopScan reports whether a best-star scan may end at an active client of
// cost c, given the best ratio bestNum/bestDen over the prefixes before it
// in a row of deg clients. Costs ascend along the row and the opening
// charge never falls as the prefix grows, so once c >= the best ratio every
// longer prefix of t' clients totals at least t' times it and cannot be
// strictly better. Saturating sums read at most MaxInt64, so the stop also
// needs MaxInt64/deg >= the best ratio; with costs at most fl.MaxCost that
// holds on every row under 2^22 clients.
func stopScan(c, bestNum, bestDen int64, deg int) bool {
	return !fl.RatioLess(c, 1, bestNum, bestDen) &&
		fl.RatioLessEq(bestNum, bestDen, math.MaxInt64, int64(deg))
}

// OpenAll opens every facility and connects each client to its cheapest
// one. It is the weakest baseline and an upper anchor in the tables.
func OpenAll(inst *fl.Instance) (*fl.Solution, error) {
	if !inst.Connectable() {
		return nil, ErrInfeasible
	}
	sol := fl.NewSolution(inst)
	for i := range sol.Open {
		sol.Open[i] = true
	}
	for j := 0; j < inst.NC(); j++ {
		e, _ := inst.CheapestEdge(j)
		sol.Assign[j] = e.To
	}
	return fl.Reassign(inst, sol), nil
}

// CheapestPerClient opens, for every client, that client's cheapest
// facility. It models the "no coordination" strawman.
func CheapestPerClient(inst *fl.Instance) (*fl.Solution, error) {
	if !inst.Connectable() {
		return nil, ErrInfeasible
	}
	sol := fl.NewSolution(inst)
	for j := 0; j < inst.NC(); j++ {
		e, _ := inst.CheapestEdge(j)
		sol.Open[e.To] = true
		sol.Assign[j] = e.To
	}
	return fl.Reassign(inst, sol), nil
}
