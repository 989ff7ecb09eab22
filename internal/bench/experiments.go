package bench

import (
	"fmt"

	"dfl/internal/congest"
	"dfl/internal/core"
	"dfl/internal/fl"
	"dfl/internal/gen"
	"dfl/internal/seq"
)

// TradeoffK regenerates Table 1: approximation quality as a function of the
// trade-off parameter K on a fixed non-metric instance. The analytical
// factor sqrt(K)*chi is printed next to the measured ratio; the paper's
// claim is the *shape* — measured quality improves as K grows while rounds
// grow linearly in K.
func TradeoffK(p Params) ([]Table, error) {
	m, nc := 100, 400
	ks := []int{1, 4, 9, 16, 25, 36, 64, 100}
	inst, err := gen.Uniform{M: m, NC: nc}.Generate(p.Seed)
	if err != nil {
		return nil, err
	}
	lb, err := lowerBound(inst)
	if err != nil {
		return nil, err
	}
	greedyCost, err := seqCost(inst, "greedy")
	if err != nil {
		return nil, err
	}

	t := Table{
		ID:    "T1",
		Title: "Approximation vs trade-off parameter K",
		Note: fmt.Sprintf("instance %s; ratio = cost / LP lower bound (LP=%d); greedy ratio %.3f; avg of %d protocol seeds",
			fl.ComputeStats(inst).String(), lb, float64(greedyCost)/float64(lb), p.runs()),
		Columns: []string{"K", "phases", "chi", "rounds", "messages", "avg cost", "ratio", "analytic sqrtK*chi"},
	}
	for _, k := range ks {
		dm, err := runDistributed(inst, core.Config{K: k}, p.Seed, p.runs())
		if err != nil {
			return nil, err
		}
		d := dm.rep.Derived
		t.Add(in(k), in(d.Phases), i64(d.Chi), in(dm.rep.Net.Rounds),
			i64(dm.rep.Net.Messages), f64(dm.avgCost),
			f64(dm.avgCost/float64(lb)), f64(d.TheoreticalFactor()))
	}
	return []Table{t}, nil
}

// Scaling regenerates Table 2: round and message complexity as the network
// grows, at fixed K. The claim: rounds are a function of K only.
func Scaling(p Params) ([]Table, error) {
	ncs := []int{100, 200, 400, 800, 1600, 3200, 6400}
	const k = 16
	t := Table{
		ID:      "T2",
		Title:   "Rounds and messages vs network size (K=16)",
		Note:    "sparse uniform instances, m = nc/8, expected degree ~ m/5; rounds must not vary with n; live frac = mean live-node fraction per round (LiveNodeRounds/(rounds*n)), final live = live fraction when the run returned, senders/rd = nodes staging output per round",
		Columns: []string{"clients", "facilities", "edges", "rounds", "messages", "msgs/edge", "total bits", "max msg bits", "live frac", "final live", "senders/rd"},
	}
	for _, nc := range ncs {
		m := nc / 8
		if m < 4 {
			m = 4
		}
		inst, err := gen.Uniform{M: m, NC: nc, Density: 0.2, MinDegree: 3}.Generate(p.Seed + int64(nc))
		if err != nil {
			return nil, err
		}
		dm, err := runDistributed(inst, core.Config{K: k}, p.Seed, 1)
		if err != nil {
			return nil, err
		}
		st := dm.rep.Net
		nodes := float64(m + nc)
		t.Add(in(nc), in(m), in(inst.EdgeCount()), in(st.Rounds), i64(st.Messages),
			f64(float64(st.Messages)/float64(inst.EdgeCount())), i64(st.Bits), in(st.MaxMessageBits),
			f64(float64(st.LiveNodeRounds)/(float64(st.Rounds)*nodes)),
			f64(float64(st.FinalLive)/nodes),
			f64(float64(st.Senders)/float64(st.Rounds)))
	}
	return []Table{t}, nil
}

// Comparison regenerates Table 3: the distributed algorithm at two
// trade-off points against all sequential baselines, across workload
// families, all normalized by the LP lower bound.
func Comparison(p Params) ([]Table, error) {
	type workload struct {
		name string
		gen  gen.Generator
	}
	sizeM, sizeNC := 40, 200
	workloads := []workload{
		{"uniform", gen.Uniform{M: sizeM, NC: sizeNC}},
		{"sparse", gen.Uniform{M: sizeM, NC: sizeNC, Density: 0.15, MinDegree: 2}},
		{"euclidean", gen.Euclidean{M: sizeM, NC: sizeNC}},
		{"clustered", gen.Clustered{M: sizeM, NC: sizeNC, Clusters: 5}},
		{"setcover", gen.SetCoverLike{NC: sizeNC, Sets: sizeM, NestedTrap: true}},
	}
	baselines := []string{"greedy", "jv", "jms", "mp", "localsearch", "cheapest", "openall"}
	t := Table{
		ID:    "T3",
		Title: "Algorithm comparison (cost ratio vs LP lower bound)",
		Note: fmt.Sprintf("m=%d nc=%d per family; dist-K16 and dist-K64 averaged over %d seeds; JV/JMS guarantees hold on metric families only",
			sizeM, sizeNC, p.runs()),
		Columns: append([]string{"workload", "LP bound", "dist-K16", "dist-K64", "dist-K16-fine"}, baselines...),
	}
	for _, w := range workloads {
		inst, err := w.gen.Generate(p.Seed)
		if err != nil {
			return nil, err
		}
		lb, err := lowerBound(inst)
		if err != nil {
			return nil, err
		}
		row := []string{w.name, i64(lb)}
		for _, cfg := range []core.Config{
			{K: 16},
			{K: 64},
			{K: 16, FineGrainedTieBreak: true},
		} {
			dm, err := runDistributed(inst, cfg, p.Seed, p.runs())
			if err != nil {
				return nil, err
			}
			row = append(row, f64(dm.avgCost/float64(lb)))
		}
		for _, b := range baselines {
			c, err := seqCost(inst, b)
			if err != nil {
				return nil, err
			}
			row = append(row, f64(float64(c)/float64(lb)))
		}
		t.Add(row...)
	}
	return []Table{t}, nil
}

// SpreadFigure regenerates Figure 1: approximation ratio as the coefficient
// spread rho grows over five orders of magnitude, at fixed K. The class
// base chi — and with it the analytical factor — grows as (m*rho)^(1/sqrt K).
func SpreadFigure(p Params) ([]Table, error) {
	rhos := []int64{10, 100, 1000, 10000, 100000, 1000000}
	m, nc := 30, 150
	const k = 16
	t := Table{
		ID:      "F1",
		Title:   "Figure 1 — ratio vs coefficient spread rho (K=16)",
		Note:    "series: x = rho, y = measured ratio; analytical chi and factor alongside",
		Columns: []string{"rho", "realized rho", "chi", "ratio", "greedy ratio", "analytic sqrtK*chi"},
	}
	for _, rho := range rhos {
		inst, err := gen.Spread{M: m, NC: nc, Rho: rho}.Generate(p.Seed)
		if err != nil {
			return nil, err
		}
		lb, err := lowerBound(inst)
		if err != nil {
			return nil, err
		}
		dm, err := runDistributed(inst, core.Config{K: k}, p.Seed, p.runs())
		if err != nil {
			return nil, err
		}
		g, err := seqCost(inst, "greedy")
		if err != nil {
			return nil, err
		}
		d := dm.rep.Derived
		t.Add(i64(rho), i64(inst.Spread()), i64(d.Chi),
			f64(dm.avgCost/float64(lb)), f64(float64(g)/float64(lb)), f64(d.TheoreticalFactor()))
	}
	return []Table{t}, nil
}

// FrontierFigure regenerates Figure 2: the rounds/approximation frontier —
// measured rounds on the x axis, measured ratio on the y axis, one series
// per workload family, plus the analytical curve.
func FrontierFigure(p Params) ([]Table, error) {
	ks := []int{1, 2, 4, 9, 16, 25, 36, 49, 64, 100, 144}
	m, nc := 50, 250
	families := []struct {
		name string
		gen  gen.Generator
	}{
		{"uniform", gen.Uniform{M: m, NC: nc}},
		{"euclidean", gen.Euclidean{M: m, NC: nc}},
	}
	t := Table{
		ID:      "F2",
		Title:   "Figure 2 — rounds vs approximation frontier",
		Note:    "series keyed by (family); x = measured rounds, y = measured ratio vs LP",
		Columns: []string{"family", "K", "rounds", "ratio", "analytic sqrtK*chi"},
	}
	for _, fam := range families {
		inst, err := fam.gen.Generate(p.Seed)
		if err != nil {
			return nil, err
		}
		lb, err := lowerBound(inst)
		if err != nil {
			return nil, err
		}
		for _, k := range ks {
			dm, err := runDistributed(inst, core.Config{K: k}, p.Seed, p.runs())
			if err != nil {
				return nil, err
			}
			t.Add(fam.name, in(k), in(dm.rep.Net.Rounds),
				f64(dm.avgCost/float64(lb)), f64(dm.rep.Derived.TheoreticalFactor()))
		}
	}
	return []Table{t}, nil
}

// MessageBits regenerates Table 4: the CONGEST compliance audit — the
// largest message observed on any edge in any experiment family versus the
// O(log n) budget.
func MessageBits(p Params) ([]Table, error) {
	m, nc := 40, 200
	families := []struct {
		name string
		gen  gen.Generator
	}{
		{"uniform", gen.Uniform{M: m, NC: nc}},
		{"sparse", gen.Uniform{M: m, NC: nc, Density: 0.15, MinDegree: 2}},
		{"euclidean", gen.Euclidean{M: m, NC: nc}},
		{"setcover", gen.SetCoverLike{NC: nc, Sets: m, NestedTrap: true}},
		{"star", gen.Star{M: m, NC: nc}},
	}
	t := Table{
		ID:      "T4",
		Title:   "CONGEST message-size compliance (K=16)",
		Note:    "every payload must fit the O(log n) bit budget; the engine aborts on violation, so rows here are proofs",
		Columns: []string{"workload", "nodes", "budget bits", "max observed bits", "avg bits/message"},
	}
	for _, fam := range families {
		inst, err := fam.gen.Generate(p.Seed)
		if err != nil {
			return nil, err
		}
		dm, err := runDistributed(inst, core.Config{K: 16}, p.Seed, 1)
		if err != nil {
			return nil, err
		}
		n := inst.M() + inst.NC()
		st := dm.rep.Net
		t.Add(fam.name, in(n), in(congest.SuggestedBitLimit(n)), in(st.MaxMessageBits),
			f64(float64(st.Bits)/float64(st.Messages)))
	}
	return []Table{t}, nil
}

// Ablation regenerates Table 5: sensitivity of the reconstruction's design
// choices — randomized vs deterministic priorities, the opening slack, and
// the per-phase iteration budget — including the share of clients the
// cleanup fallback has to rescue.
func Ablation(p Params) ([]Table, error) {
	m, nc := 40, 200
	inst, err := gen.Uniform{M: m, NC: nc}.Generate(p.Seed)
	if err != nil {
		return nil, err
	}
	star, err := gen.Star{M: m, NC: nc}.Generate(p.Seed)
	if err != nil {
		return nil, err
	}
	variants := []struct {
		name string
		cfg  core.Config
	}{
		{"default (K=16)", core.Config{K: 16}},
		{"deterministic prios", core.Config{K: 16, DeterministicPriorities: true}},
		{"slack=2 (loose)", core.Config{K: 16, Slack: 2}},
		{"slack=4 (looser)", core.Config{K: 16, Slack: 4}},
		{"iters=1", core.Config{K: 16, ItersPerPhase: 1}},
		{"iters=8", core.Config{K: 16, ItersPerPhase: 8}},
		{"fine tie-break (ext)", core.Config{K: 16, FineGrainedTieBreak: true}},
	}
	t := Table{
		ID:      "T5",
		Title:   "Ablation of reconstruction design choices (K=16)",
		Note:    fmt.Sprintf("uniform and star workloads, m=%d nc=%d; cleanup%% = clients rescued by the final fallback", m, nc),
		Columns: []string{"variant", "uniform ratio", "uniform cleanup%", "star ratio", "star cleanup%", "rounds"},
	}
	lbU, err := lowerBound(inst)
	if err != nil {
		return nil, err
	}
	lbS, err := lowerBound(star)
	if err != nil {
		return nil, err
	}
	for _, v := range variants {
		du, err := runDistributed(inst, v.cfg, p.Seed, p.runs())
		if err != nil {
			return nil, err
		}
		ds, err := runDistributed(star, v.cfg, p.Seed, p.runs())
		if err != nil {
			return nil, err
		}
		t.Add(v.name,
			f64(du.avgCost/float64(lbU)), f64(du.cleanupF*100),
			f64(ds.avgCost/float64(lbS)), f64(ds.cleanupF*100),
			in(du.rep.Net.Rounds))
	}
	return []Table{t}, nil
}

// ExactAudit regenerates Table 6: on instances small enough for exact
// search, the measured ratio against true OPT must stay below the
// analytical factor. The harness fails loudly if the theorem-shaped bound
// is violated.
func ExactAudit(p Params) ([]Table, error) {
	seeds := []int64{1, 2, 3, 4, 5, 6}
	families := []struct {
		name string
		gen  gen.Generator
	}{
		{"uniform", gen.Uniform{M: 10, NC: 25}},
		{"euclidean", gen.Euclidean{M: 10, NC: 25}},
		{"line", gen.Line{M: 8, NC: 20}},
		{"star", gen.Star{M: 8, NC: 20}},
	}
	ks := []int{1, 4, 16}
	t := Table{
		ID:      "T6",
		Title:   "Exact-ratio audit: measured ratio vs analytical factor",
		Note:    "ratio = avg distributed cost / exact OPT; verdict fails when ratio exceeds sqrt(K)*chi",
		Columns: []string{"workload", "seed", "K", "OPT", "avg cost", "ratio", "bound", "verdict"},
	}
	for _, fam := range families {
		for _, seed := range seeds {
			inst, err := fam.gen.Generate(seed)
			if err != nil {
				return nil, err
			}
			opt, err := seq.Exact(inst)
			if err != nil {
				return nil, err
			}
			optCost := opt.Cost(inst)
			if optCost < 1 {
				optCost = 1
			}
			for _, k := range ks {
				dm, err := runDistributed(inst, core.Config{K: k}, seed, p.runs())
				if err != nil {
					return nil, err
				}
				ratio := dm.avgCost / float64(optCost)
				bound := dm.rep.Derived.TheoreticalFactor()
				verdict := "PASS"
				if ratio > bound {
					verdict = "FAIL"
				}
				t.Add(fam.name, i64(seed), in(k), i64(optCost),
					f64(dm.avgCost), f64(ratio), f64(bound), verdict)
			}
		}
	}
	return []Table{t}, nil
}
