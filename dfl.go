// Package dfl is the public API of the distributed facility-location
// library — a reproduction of "Facility Location: Distributed
// Approximation" (PODC 2005). It re-exports the problem model, the
// distributed CONGEST-model algorithm with its rounds-vs-approximation
// trade-off, the sequential baselines, the LP lower bound, and the workload
// generators, so downstream users never import internal packages.
//
// Quickstart:
//
//	inst, _ := dfl.Uniform{M: 50, NC: 200}.Generate(1)
//	sol, rep, _ := dfl.SolveDistributed(inst, dfl.DistConfig{K: 16})
//	fmt.Println("cost:", sol.Cost(inst), "rounds:", rep.Net.Rounds)
//
// See examples/ for runnable end-to-end programs and cmd/flbench for the
// full evaluation harness.
package dfl

import (
	"dfl/internal/congest"
	"dfl/internal/core"
	"dfl/internal/fl"
	"dfl/internal/gen"
	"dfl/internal/lp"
	"dfl/internal/seq"
)

// Problem model (see internal/fl).
type (
	// Instance is an immutable UFL instance on a bipartite graph.
	Instance = fl.Instance
	// Solution is a set of open facilities plus a client assignment.
	Solution = fl.Solution
	// RawEdge names a bipartite edge during construction.
	RawEdge = fl.RawEdge
	// InstanceStats summarizes an instance's shape.
	InstanceStats = fl.Stats
)

// NewInstance builds an instance from facility opening costs and a sparse
// edge list.
func NewInstance(name string, facilityCost []int64, numClients int, edges []RawEdge) (*Instance, error) {
	return fl.New(name, facilityCost, numClients, edges)
}

// NewDenseInstance builds a complete-bipartite instance from a cost matrix
// indexed costs[client][facility].
func NewDenseInstance(name string, facilityCost []int64, costs [][]int64) (*Instance, error) {
	return fl.NewDense(name, facilityCost, costs)
}

// Validate checks that sol is feasible for inst.
func Validate(inst *Instance, sol *Solution) error { return fl.Validate(inst, sol) }

// Stats scans an instance and summarizes its shape.
func Stats(inst *Instance) InstanceStats { return fl.ComputeStats(inst) }

// The paper's algorithm (see internal/core).
type (
	// DistConfig selects a point on the rounds-vs-approximation trade-off.
	DistConfig = core.Config
	// DistReport describes one distributed run.
	DistReport = core.Report
	// DistOption configures SolveDistributed.
	DistOption = core.Option
)

// SolveDistributed runs the distributed CONGEST-model algorithm.
// With trade-off parameter K it spends Theta(K) communication rounds and
// targets an O(sqrt(K) * (m*rho)^(1/sqrt(K))) approximation factor.
func SolveDistributed(inst *Instance, cfg DistConfig, opts ...DistOption) (*Solution, *DistReport, error) {
	return core.Solve(inst, cfg, opts...)
}

// Run options for SolveDistributed.
var (
	// WithSeed fixes all protocol randomness.
	WithSeed = core.WithSeed
	// WithParallel runs the simulator with parallel round execution. A
	// run with faults, the reliable-delivery shim or an observer takes
	// the sequential runner instead, with an identical result.
	WithParallel = core.WithParallel
	// WithFaults injects a fault schedule: drops, duplication, bounded
	// reordering, bursts, link downs, partitions, crash-with-recovery,
	// per-message corruption and byzantine nodes. The repair pass
	// re-serves stranded clients, fail-closed decoding and the
	// sender-quarantine layer defend honest nodes, and the built-in
	// certifier vouches for the result; byzantine nodes and the clients
	// they deceived are reported exemptions.
	WithFaults = core.WithFaults
)

// FaultSchedule configures injected failures for WithFaults; the zero
// value injects nothing. See the congest package for field semantics.
type FaultSchedule = congest.Faults

// SolveDistributedBest runs the protocol `runs` times with consecutive
// seeds and returns the cheapest solution — the cheap way to shave the
// variance of randomized symmetry breaking.
func SolveDistributedBest(inst *Instance, cfg DistConfig, baseSeed int64, runs int, opts ...DistOption) (*Solution, *DistReport, error) {
	return core.SolveBest(inst, cfg, baseSeed, runs, opts...)
}

// CapSolution is a soft-capacitated answer: open copies per facility plus
// a client assignment.
type CapSolution = fl.CapSolution

// SolveDistributedSoftCap runs the protocol in soft-capacitated mode:
// every copy of a facility costs its opening cost again and serves at most
// cfg.SoftCapacity clients.
func SolveDistributedSoftCap(inst *Instance, cfg DistConfig, opts ...DistOption) (*CapSolution, *DistReport, error) {
	return core.SolveSoftCap(inst, cfg, opts...)
}

// ValidateCap checks a capacitated solution's feasibility under the given
// per-copy capacity.
func ValidateCap(inst *Instance, capacity int, sol *CapSolution) error {
	return fl.ValidateCap(inst, capacity, sol)
}

// Sequential baselines (see internal/seq).
var (
	// SolveGreedy is the sequential greedy star algorithm
	// (O(log n)-approximate on non-metric instances).
	SolveGreedy = seq.Greedy
	// SolveJainVazirani is the primal-dual 3-approximation (metric).
	SolveJainVazirani = seq.JainVazirani
	// SolveJMS is the Jain-Mahdian-Saberi 1.861-approximation (metric).
	SolveJMS = seq.JMS
	// SolveExact is exact branch-and-bound for small facility counts.
	SolveExact = seq.Exact
)

// LocalSearchConfig tunes SolveLocalSearch.
type LocalSearchConfig = seq.LocalSearchConfig

// SolveLocalSearch polishes a starting solution with add/drop/swap moves;
// a nil start begins from opening every client's cheapest facility.
func SolveLocalSearch(inst *Instance, start *Solution, cfg LocalSearchConfig) (*Solution, error) {
	return seq.LocalSearch(inst, start, cfg)
}

// LowerBound computes the LP dual-ascent lower bound on OPT, the
// denominator for approximation-ratio measurements.
func LowerBound(inst *Instance) (int64, error) { return lp.LowerBound(inst) }

// Workload generators (see internal/gen).
type (
	// Generator is a deterministic workload family.
	Generator = gen.Generator
	// Uniform is the non-metric random family.
	Uniform = gen.Uniform
	// Clustered is the Gaussian-blob metric family.
	Clustered = gen.Clustered
)

// GeneratorByName returns a default-parameterized generator for a named
// family ("uniform", "euclidean", ...).
func GeneratorByName(family string, m, nc int) (Generator, error) {
	return gen.ByName(family, m, nc)
}
