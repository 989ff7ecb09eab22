package seq

import (
	"errors"
	"fmt"

	"dfl/internal/fl"
)

// SoftCapGreedy runs the greedy star algorithm for SOFT-CAPACITATED
// facility location: each copy of facility i costs f_i and serves at most
// cap clients. The star effectiveness generalizes to
//
//	( newCopiesNeeded * f_i + sum of connection costs ) / #clients
//
// where newCopiesNeeded accounts for spare capacity in copies the facility
// already paid for. With cap large enough the algorithm coincides with
// Greedy (property-tested).
func SoftCapGreedy(inst *fl.Instance, cap int) (*fl.CapSolution, error) {
	if cap < 1 {
		return nil, fmt.Errorf("seq: capacity must be >= 1, got %d", cap)
	}
	if !inst.Connectable() {
		return nil, ErrInfeasible
	}
	m, nc := inst.M(), inst.NC()
	sol := fl.NewCapSolution(inst)
	load := make([]int, m)
	active := make([]bool, nc)
	for j := range active {
		active[j] = true
	}
	remaining := nc

	for remaining > 0 {
		bestFac := -1
		var bestNum, bestDen int64
		var bestStar []int
		for i := 0; i < m; i++ {
			num, den, star := bestCapStarFor(inst, i, cap, sol.Copies[i], load[i], active)
			if den == 0 {
				continue
			}
			if bestFac == -1 || fl.RatioLess(num, den, bestNum, bestDen) {
				bestFac, bestNum, bestDen = i, num, den
				bestStar = star
			}
		}
		if bestFac == -1 {
			return nil, errors.New("seq: capacitated greedy stalled")
		}
		load[bestFac] += len(bestStar)
		if need := fl.CopiesNeeded(load[bestFac], cap); need > sol.Copies[bestFac] {
			sol.Copies[bestFac] = need
		}
		for _, j := range bestStar {
			sol.Assign[j] = bestFac
			active[j] = false
			remaining--
		}
	}
	if err := fl.ValidateCap(inst, cap, sol); err != nil {
		return nil, fmt.Errorf("seq: capacitated greedy produced invalid solution: %w", err)
	}
	return sol, nil
}

// bestCapStarFor is the capacity-aware analogue of bestStarFor: scanning
// facility i's active clients by ascending cost, the numerator charges a
// fresh opening cost every time the prefix spills into a new copy. That
// charge never falls as the prefix grows, so the same stopScan rule ends
// the scan.
func bestCapStarFor(inst *fl.Instance, i, cap, copies, load int, active []bool) (num, den int64, star []int) {
	fi := inst.FacilityCost(i)
	var (
		sum     int64
		t       int64
		bestNum int64
		bestDen int64
		bestLen int
		have    bool
	)
	row := inst.FacilityEdges(i)
	for _, e := range row { // ascending cost
		if !active[e.To] {
			continue
		}
		if have && stopScan(e.Cost, bestNum, bestDen, len(row)) {
			break
		}
		star = append(star, e.To)
		t++
		newCopies := fl.CopiesNeeded(load+int(t), cap) - copies
		if newCopies < 0 {
			newCopies = 0
		}
		sum = fl.AddSat(sum, e.Cost)
		total := fl.AddSat(sum, fl.MulSat(int64(newCopies), fi))
		if !have || fl.RatioLess(total, t, bestNum, bestDen) {
			bestNum, bestDen, bestLen = total, t, len(star)
			have = true
		}
	}
	if !have {
		return 0, 0, nil
	}
	return bestNum, bestDen, star[:bestLen]
}
