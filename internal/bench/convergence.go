package bench

import (
	"fmt"

	"dfl/internal/congest"
	"dfl/internal/core"
	"dfl/internal/gen"
)

// ConvergenceFigure regenerates Figure 3: protocol progress over rounds —
// the cumulative fraction of clients connected after each offer/grant/open
// iteration, one series per trade-off point. It makes the phase structure
// visible: progress arrives in bursts as the threshold sweep reaches the
// classes where the instance's stars live.
func ConvergenceFigure(p Params) ([]Table, error) {
	m, nc := 40, 200
	ks := []int{4, 16, 64}
	inst, err := gen.Uniform{M: m, NC: nc}.Generate(p.Seed)
	if err != nil {
		return nil, err
	}
	t := Table{
		ID:      "F3",
		Title:   "Figure 3 — protocol convergence over rounds",
		Note:    fmt.Sprintf("uniform m=%d nc=%d; one row per iteration: cumulative %% of clients connected", m, nc),
		Columns: []string{"K", "phase", "iteration", "round", "connected%"},
	}
	for _, k := range ks {
		d, err := core.Derive(inst, core.Config{K: k})
		if err != nil {
			return nil, err
		}
		connectsByRound := make(map[int]int)
		_, _, err = core.Solve(inst, core.Config{K: k},
			core.WithSeed(p.Seed),
			core.WithObserver(func(round int, delivered []congest.Message) {
				for _, msg := range delivered {
					if core.IsConnect(msg.Payload) {
						connectsByRound[round]++
					}
				}
			}))
		if err != nil {
			return nil, err
		}
		connected := 0
		for iter := 0; iter < d.Phases*d.ItersPerPhase; iter++ {
			// CONNECTs of iteration i are sent in its sub-3 facility round,
			// 4i+3 (the observer reports messages at their send round).
			round := 4*iter + 3
			connected += connectsByRound[round]
			phase := iter / d.ItersPerPhase
			t.Add(in(k), in(phase), in(iter), in(round),
				f64(float64(connected)/float64(nc)*100))
		}
		// Cleanup CONNECTs are sent one round after the sweep ends.
		connected += connectsByRound[d.ProtoRounds+1]
		t.Add(in(k), in(d.Phases), in(-1), in(d.TotalRounds),
			f64(float64(connected)/float64(nc)*100))
	}
	return []Table{t}, nil
}
