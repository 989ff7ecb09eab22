package bench

import (
	"fmt"

	"dfl/internal/core"
	"dfl/internal/fl"
	"dfl/internal/gen"
	"dfl/internal/seq"
)

// CapacitySweep regenerates Table 8: the soft-capacitated extension —
// solution structure and cost as the per-copy capacity tightens, for the
// distributed protocol and the capacity-aware sequential greedy. The
// uncapacitated run (cap = infinity) anchors the top row; the cap=1 row is
// the degenerate "one copy per client" regime where connection choice is
// everything.
func CapacitySweep(p Params) ([]Table, error) {
	m, nc := 30, 150
	inst, err := gen.Uniform{M: m, NC: nc}.Generate(p.Seed)
	if err != nil {
		return nil, err
	}
	caps := []int{0, 50, 20, 10, 5, 2, 1} // 0 encodes "unlimited"
	t := Table{
		ID:      "T8",
		Title:   "Soft-capacitated extension: cost vs per-copy capacity (K=16)",
		Note:    fmt.Sprintf("uniform m=%d nc=%d; 'copies' sums open copies; dist averaged over %d seeds", m, nc, p.runs()),
		Columns: []string{"capacity", "dist cost", "dist copies", "greedy cost", "greedy copies", "dist/greedy"},
	}
	for _, cap := range caps {
		label := fmt.Sprintf("%d", cap)
		effCap := cap
		if cap == 0 {
			label = "unlimited"
			effCap = nc + 1
		}
		var distTotal int64
		var distCopies int
		for s := 0; s < p.runs(); s++ {
			sol, _, err := core.SolveSoftCap(inst,
				core.Config{K: 16, SoftCapacity: effCap},
				core.WithSeed(p.Seed+int64(s)))
			if err != nil {
				return nil, err
			}
			if err := fl.ValidateCap(inst, effCap, sol); err != nil {
				return nil, err
			}
			distTotal += sol.Cost(inst)
			for _, c := range sol.Copies {
				distCopies += c
			}
		}
		distAvg := float64(distTotal) / float64(p.runs())
		gSol, err := seq.SoftCapGreedy(inst, effCap)
		if err != nil {
			return nil, err
		}
		gCopies := 0
		for _, c := range gSol.Copies {
			gCopies += c
		}
		gCost := gSol.Cost(inst)
		t.Add(label, f64(distAvg), f64(float64(distCopies)/float64(p.runs())),
			i64(gCost), in(gCopies), f64(distAvg/float64(gCost)))
	}
	return []Table{t}, nil
}
