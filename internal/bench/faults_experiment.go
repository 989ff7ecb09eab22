package bench

import (
	"fmt"

	"dfl/internal/congest"
	"dfl/internal/core"
	"dfl/internal/gen"
)

// FaultSensitivity regenerates Table 7: solution quality as protocol
// messages are dropped at increasing rates during the phase sweep (the
// cleanup barrier stays reliable, so feasibility is guaranteed — the table
// measures graceful degradation). At 100% loss the protocol degenerates to
// the cheapest-per-client baseline, which anchors the last row.
func FaultSensitivity(p Params) ([]Table, error) {
	m, nc := 40, 200
	inst, err := gen.Uniform{M: m, NC: nc}.Generate(p.Seed)
	if err != nil {
		return nil, err
	}
	lb, err := lowerBound(inst)
	if err != nil {
		return nil, err
	}
	cheapest, err := seqCost(inst, "cheapest")
	if err != nil {
		return nil, err
	}
	t := Table{
		ID:    "T7",
		Title: "Fault sensitivity: quality vs message loss (K=16)",
		Note: fmt.Sprintf("uniform m=%d nc=%d; drops during the phase sweep only; cheapest-per-client anchor ratio %.3f; avg of %d seeds",
			m, nc, float64(cheapest)/float64(lb), p.runs()),
		Columns: []string{"loss rate", "ratio", "cleanup%", "dropped msgs", "verdict"},
	}
	rates := []float64{0, 0.05, 0.1, 0.25, 0.5, 0.75, 1.0}
	var prevRatio float64
	for idx, rate := range rates {
		var (
			total   int64
			cleanup int
			dropped int64
		)
		for s := 0; s < p.runs(); s++ {
			sol, rep, err := core.Solve(inst, core.Config{K: 16},
				core.WithSeed(p.Seed+int64(s)), core.WithFaults(congest.Faults{DropProb: rate}))
			if err != nil {
				return nil, err
			}
			total += sol.Cost(inst)
			cleanup += rep.CleanupClients
			dropped += rep.Net.Dropped
		}
		ratio := float64(total) / float64(p.runs()) / float64(lb)
		verdict := "feasible"
		if idx > 0 && ratio < prevRatio*0.8 {
			verdict = "feasible (nonmonotone)"
		}
		prevRatio = ratio
		t.Add(fmt.Sprintf("%.0f%%", rate*100), f64(ratio),
			f64(float64(cleanup)/float64(p.runs()*nc)*100),
			i64(dropped/int64(p.runs())), verdict)
	}
	return []Table{t}, nil
}
