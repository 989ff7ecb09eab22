package bench

import (
	"fmt"

	"dfl/internal/gen"
	"dfl/internal/lp"
	"dfl/internal/seq"
)

// LPGapAudit regenerates Table 9: how tight is the measurement chain? On
// instances small enough for both the dense simplex and exact search it
// reports dual-ascent bound <= exact LP optimum <= integral optimum, the
// ascent gap (how much ratio tables overstate by using the cheap bound)
// and the integrality gap (the part no LP-based bound can close).
func LPGapAudit(p Params) ([]Table, error) {
	seeds := []int64{1, 2, 3, 4, 5}
	families := []struct {
		name string
		gen  gen.Generator
	}{
		{"uniform", gen.Uniform{M: 7, NC: 18}},
		{"euclidean", gen.Euclidean{M: 7, NC: 18}},
		{"setcover", gen.SetCoverLike{NC: 16, Sets: 4, NestedTrap: true}},
		{"grid", gen.Grid{M: 9, NC: 18}},
	}
	t := Table{
		ID:      "T9",
		Title:   "LP-gap audit: dual ascent vs exact LP vs exact OPT",
		Note:    "ascent gap = LP / dual-ascent bound; integrality gap = OPT / LP; ratios reported elsewhere against the dual bound overstate by at most the ascent gap",
		Columns: []string{"workload", "seed", "dual bound", "exact LP", "OPT", "ascent gap", "integrality gap"},
	}
	for _, fam := range families {
		for _, seed := range seeds {
			inst, err := fam.gen.Generate(seed)
			if err != nil {
				return nil, err
			}
			dual, err := lp.LowerBound(inst)
			if err != nil {
				return nil, err
			}
			if dual < 1 {
				dual = 1
			}
			lpVal, err := lp.SolveExactLP(inst)
			if err != nil {
				return nil, err
			}
			opt, err := seq.Exact(inst)
			if err != nil {
				return nil, err
			}
			optCost := opt.Cost(inst)
			t.Add(fam.name, i64(seed), i64(dual), fmt.Sprintf("%.1f", lpVal), i64(optCost),
				f64(lpVal/float64(dual)), f64(float64(optCost)/lpVal))
		}
	}
	return []Table{t}, nil
}
