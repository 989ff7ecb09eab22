package bench

import (
	"fmt"
	"sort"

	"dfl/internal/core"
	"dfl/internal/fl"
	"dfl/internal/lp"
	"dfl/internal/seq"
)

// Params control one experiment run.
type Params struct {
	// Quick shrinks instance sizes and seed counts so the whole suite runs
	// in seconds; used by tests and `flbench -quick`.
	Quick bool
	// Seed derives all instance and protocol randomness.
	Seed int64
	// Runs is the number of protocol seeds averaged per measurement;
	// 0 means 5 (2 in quick mode).
	Runs int
	// FaultSpec, when non-empty, replaces the chaos experiment's default
	// schedule matrix with one parsed from this compact syntax (see
	// ParseFaultSpec); set by the flbench -faults flag.
	FaultSpec string
	// Procs pins GOMAXPROCS for the engine-throughput experiment; 0 means
	// runtime.NumCPU(). Set by the flbench -procs flag. The seed baseline
	// was recorded with the harness default of 1 — see BENCH_5.json.
	Procs int
	// Shards, when non-empty, replaces the engine experiment's default
	// shard-count list (0 denotes the sequential runner in T10). Set by the
	// flbench -shards flag.
	Shards []int
}

func (p Params) runs() int {
	if p.Runs > 0 {
		return p.Runs
	}
	if p.Quick {
		return 2
	}
	return 5
}

// Experiment is one regenerable artifact of the evaluation.
type Experiment struct {
	ID    string
	Name  string
	Run   func(Params) ([]Table, error)
	Kind  string // "table" or "figure"
	Claim string // the paper claim this artifact measures
}

// Experiments returns the full suite in presentation order.
func Experiments() []Experiment {
	return []Experiment{
		{ID: "E1", Kind: "table", Name: "Approximation vs trade-off parameter K",
			Claim: "factor ~ sqrt(K)*(m*rho)^(1/sqrt(K)) decreases in K", Run: TradeoffK},
		{ID: "E2", Kind: "table", Name: "Rounds and messages vs network size",
			Claim: "round complexity depends on K, not on n", Run: Scaling},
		{ID: "E3", Kind: "table", Name: "Distributed vs sequential baselines",
			Claim: "constant rounds pay a bounded quality premium over O(n)-time baselines", Run: Comparison},
		{ID: "E4", Kind: "figure", Name: "Ratio vs coefficient spread rho",
			Claim: "approximation grows with rho as (m*rho)^(1/sqrt(K))", Run: SpreadFigure},
		{ID: "E5", Kind: "figure", Name: "Rounds/approximation frontier",
			Claim: "the headline trade-off curve", Run: FrontierFigure},
		{ID: "E6", Kind: "table", Name: "CONGEST message-size compliance",
			Claim: "O(log n)-bit messages suffice", Run: MessageBits},
		{ID: "E7", Kind: "table", Name: "Ablations: priorities, slack, iterations",
			Claim: "design-choice sensitivity", Run: Ablation},
		{ID: "E8", Kind: "table", Name: "Exact-ratio audit on small instances",
			Claim: "measured ratio <= analytical factor * OPT", Run: ExactAudit},
		{ID: "E9", Kind: "table", Name: "Fault sensitivity under message loss",
			Claim: "feasibility at any loss rate; graceful quality degradation", Run: FaultSensitivity},
		{ID: "E10", Kind: "figure", Name: "Protocol convergence over rounds",
			Claim: "progress arrives as the threshold sweep reaches each class", Run: ConvergenceFigure},
		{ID: "E11", Kind: "table", Name: "Soft-capacitated extension sweep",
			Claim: "per-copy capacities integrate into the same trade-off", Run: CapacitySweep},
		{ID: "E12", Kind: "table", Name: "LP-gap audit (dual ascent vs exact LP vs OPT)",
			Claim: "the cheap dual bound is within a small factor of the exact LP", Run: LPGapAudit},
		{ID: "E13", Kind: "table", Name: "Engine throughput vs size and shard count",
			Claim: "the simulator itself scales: rounds/sec tracks hardware, allocs/round stay flat", Run: EngineThroughput},
		{ID: "E14", Kind: "table", Name: "Self-healing under adversarial fault schedules",
			Claim: "crashes, duplication and heavy loss cost quality, never certified feasibility", Run: ChaosOverhead},
		{ID: "E15", Kind: "table", Name: "Byzantine resilience under corruption and forgery",
			Claim: "honest servable clients stay certified-served; quarantine buys back clients the lure attack strands", Run: ByzantineResilience},
		{ID: "E16", Kind: "table", Name: "Million-node engine scaling",
			Claim: "CSR adjacency and round-scoped message buffers keep steady-state allocs/round flat from 10^5 to 5*10^6 nodes", Run: MillionNodeScaling},
		{ID: "E18", Kind: "table", Name: "Sparse round execution (sleeping vs awake nodes)",
			Claim: "per-round cost scales with the active frontier, not n: sparse rounds run multiples faster than the same nodes kept awake every round, at identical output", Run: SparseRounds},
	}
}

// ExperimentByID finds one experiment.
func ExperimentByID(id string) (Experiment, error) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e, nil
		}
	}
	var ids []string
	for _, e := range Experiments() {
		ids = append(ids, e.ID)
	}
	sort.Strings(ids)
	return Experiment{}, fmt.Errorf("bench: unknown experiment %q (have %v)", id, ids)
}

// distMeasure is one averaged distributed run.
type distMeasure struct {
	avgCost  float64
	minCost  int64
	maxCost  int64
	rep      *core.Report // report of the last run (round counts are seed independent)
	cleanupF float64      // average fraction of clients connected by cleanup
}

// runDistributed solves inst `runs` times with consecutive seeds and
// averages.
func runDistributed(inst *fl.Instance, cfg core.Config, baseSeed int64, runs int) (distMeasure, error) {
	var m distMeasure
	var total int64
	var cleanup int
	for s := 0; s < runs; s++ {
		sol, rep, err := core.Solve(inst, cfg, core.WithSeed(baseSeed+int64(s)))
		if err != nil {
			return m, fmt.Errorf("distributed run %d: %w", s, err)
		}
		c := sol.Cost(inst)
		total += c
		cleanup += rep.CleanupClients
		if s == 0 || c < m.minCost {
			m.minCost = c
		}
		if c > m.maxCost {
			m.maxCost = c
		}
		m.rep = rep
	}
	m.avgCost = float64(total) / float64(runs)
	m.cleanupF = float64(cleanup) / float64(runs*inst.NC())
	return m, nil
}

// lowerBoundOrGreedy prefers the LP bound; ratio denominators must be
// positive, so all-zero-cost corner instances fall back to 1.
func lowerBound(inst *fl.Instance) (int64, error) {
	lb, err := lp.LowerBound(inst)
	if err != nil {
		return 0, err
	}
	if lb < 1 {
		lb = 1
	}
	return lb, nil
}

// seqCost runs a named sequential baseline.
func seqCost(inst *fl.Instance, name string) (int64, error) {
	var (
		sol *fl.Solution
		err error
	)
	switch name {
	case "greedy":
		sol, err = seq.Greedy(inst)
	case "jv":
		sol, err = seq.JainVazirani(inst)
	case "jms":
		sol, err = seq.JMS(inst)
	case "mp":
		sol, err = seq.MettuPlaxton(inst)
	case "localsearch":
		sol, err = seq.LocalSearch(inst, nil, seq.LocalSearchConfig{})
	case "openall":
		sol, err = seq.OpenAll(inst)
	case "cheapest":
		sol, err = seq.CheapestPerClient(inst)
	default:
		return 0, fmt.Errorf("bench: unknown baseline %q", name)
	}
	if err != nil {
		return 0, fmt.Errorf("%s: %w", name, err)
	}
	if err := fl.Validate(inst, sol); err != nil {
		return 0, fmt.Errorf("%s produced invalid solution: %w", name, err)
	}
	return sol.Cost(inst), nil
}
