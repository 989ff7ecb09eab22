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
	"io"

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
	// Edge is one connection possibility.
	Edge = fl.Edge
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

// ReadInstance parses the text instance format.
func ReadInstance(r io.Reader) (*Instance, error) { return fl.Read(r) }

// WriteInstance serializes an instance in the text instance format.
func WriteInstance(w io.Writer, inst *Instance) error { return fl.Write(w, inst) }

// ReadSolution parses the text solution format (pair with Validate).
func ReadSolution(r io.Reader) (*Solution, error) { return fl.ReadSolution(r) }

// WriteSolution serializes a solution in the text solution format.
func WriteSolution(w io.Writer, sol *Solution) error { return fl.WriteSolution(w, sol) }

// Unassigned marks a client that has no facility in Solution.Assign; the
// certifier only tolerates it for clients a report exempts as dead or
// unservable.
const Unassigned = fl.Unassigned

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
	// DistDerived holds the derived protocol parameters.
	DistDerived = core.Derived
	// DistOption configures SolveDistributed.
	DistOption = core.Option
)

// SolveDistributed runs the distributed CONGEST-model algorithm.
// With trade-off parameter K it spends Theta(K) communication rounds and
// targets an O(sqrt(K) * (m*rho)^(1/sqrt(K))) approximation factor.
func SolveDistributed(inst *Instance, cfg DistConfig, opts ...DistOption) (*Solution, *DistReport, error) {
	return core.Solve(inst, cfg, opts...)
}

// DeriveDistParams computes the protocol parameters (class base chi, phase
// count, round budget) without running the protocol.
func DeriveDistParams(inst *Instance, cfg DistConfig) (DistDerived, error) {
	return core.Derive(inst, cfg)
}

// Run options for SolveDistributed.
var (
	// WithSeed fixes all protocol randomness.
	WithSeed = core.WithSeed
	// WithParallel runs the simulator with parallel round execution.
	WithParallel = core.WithParallel
	// WithShards sets the topology shard count of the parallel runner, 0
	// meaning GOMAXPROCS (byte-identical executions at every shard count; a
	// pure perf knob).
	WithShards = core.WithShards
	// WithDenseEngine selects the reference O(n)-per-round scheduler
	// instead of the default active-frontier scheduler. Byte-identical
	// output either way; a verification and baseline knob, not a feature.
	// Sequential runs only: it cannot be combined with WithParallel.
	WithDenseEngine = core.WithDenseEngine
	// WithBitLimit overrides the CONGEST message-size budget.
	WithBitLimit = core.WithBitLimit
	// WithLossyNetwork drops protocol messages with the given probability
	// during the phase sweep; feasibility is preserved by the reliable
	// cleanup barrier.
	WithLossyNetwork = core.WithLossyNetwork
	// WithFaults injects a full adversarial fault schedule (drops,
	// duplication, bounded reordering, bursts, link downs, partitions,
	// crash-with-recovery); the repair pass re-serves stranded clients and
	// Certify vouches for the result.
	WithFaults = core.WithFaults
	// WithReliableDelivery layers a per-link ack/retransmit shim under
	// every protocol message with the given retry budget.
	WithReliableDelivery = core.WithReliableDelivery
	// WithCorruption mutates each delivered message with the given
	// probability (bit flips, truncations, forged kind bytes); fail-closed
	// decoding and the sender-quarantine layer keep the certified result
	// feasible for honest clients.
	WithCorruption = core.WithCorruption
	// WithByzantine marks nodes byzantine from a given round: everything
	// they put on the wire is adversarially forged (equivocating offers and
	// beacons, bogus grants and connects). Facility i is node i, client j
	// is node m+j; the report lists the byzantine ids and every client they
	// deceived, all masked out of the certified solution.
	WithByzantine = core.WithByzantine
	// WithQuarantine forces the sender-quarantine layer on or off,
	// overriding the default (armed exactly when the schedule includes
	// corruption or byzantine nodes).
	WithQuarantine = core.WithQuarantine
)

// FaultSchedule configures injected failures for WithFaults; the zero
// value injects nothing. See the congest package for field semantics.
type FaultSchedule = congest.Faults

// Distributed deployment across real processes (see internal/congest's
// Transport seam and cmd/flnode for the UDP fleet built on it).
type (
	// Transport carries one shard's per-round message traffic; implement it
	// to run the protocol over a real network (cmd/flnode's UDP backend) or
	// use NewChanNetwork for an in-process reference deployment.
	Transport = congest.Transport
	// Span is one shard's contiguous range of node ids.
	Span = congest.Span
	// Message is one protocol message in flight between two nodes; custom
	// Transports carry these, and Checkpoint.Log records the remote ones.
	Message = congest.Message
	// RoundStart is what Transport.Begin reports: whether the fleet
	// halted, which nodes went down, and which were readmitted.
	RoundStart = congest.RoundStart
	// Fragment is one shard's share of a distributed run: span-local node
	// state plus network stats, with a compact wire codec (Encode /
	// DecodeShardFragment).
	Fragment = core.Fragment
	// LinkDownError reports a link whose delivery retry budget was
	// exhausted: which peer, which round, how many attempts were made. The
	// reliable-delivery shim and the UDP backend both surface it (see the
	// congest package's Config.OnLinkDown).
	LinkDownError = congest.LinkDownError
)

// SplitSpans partitions n protocol nodes into k contiguous shard spans as
// evenly as possible.
func SplitSpans(n, k int) []Span { return congest.SplitSpans(n, k) }

// NewChanNetwork builds the in-process reference Transport: k shards over
// n nodes exchanging messages through channels with a strict round barrier.
func NewChanNetwork(n int, spans []Span) (*congest.ChanNetwork, error) {
	return congest.NewChanNetwork(n, spans)
}

// SolveShard runs one shard's share of the distributed algorithm over the
// given transport; every party must agree on the instance, configuration,
// span partition, and seed. A fault-free deployment assembles to exactly
// the SolveDistributed solution for the same instance and seed.
func SolveShard(inst *Instance, cfg DistConfig, span Span, seed int64, tr Transport) (*Fragment, error) {
	return core.SolveShard(inst, cfg, span, seed, tr)
}

// DecodeShardFragment parses a fragment's wire bytes (fail-closed) for an
// instance with m facilities and nc clients.
func DecodeShardFragment(p []byte, m, nc int) (*Fragment, error) {
	return core.DecodeFragment(p, m, nc)
}

// Shard checkpoint and restart (see DESIGN.md §15): a checkpointed shard
// can be killed and resumed bit-identically from its last image, and the
// UDP gateway readmits the successor under a fresh incarnation.
type (
	// Checkpoint is a decoded resumable image: the shard's identity plus
	// the replay log of remote inbound messages per completed round.
	Checkpoint = core.Checkpoint
	// CheckpointSink receives encoded checkpoint images as a shard runs;
	// NewFileSink writes them atomically to a file.
	CheckpointSink = core.CheckpointSink
	// CheckpointConfig sets the cadence (Every, in rounds) and destination
	// of a shard's checkpoints. Every=1 keeps a crash loss-equivalent to a
	// transient network outage.
	CheckpointConfig = core.CheckpointConfig
)

// NewFileSink returns a CheckpointSink that writes each image to path via
// an atomic tmp-file rename, so a crash mid-write never corrupts the
// previous image.
func NewFileSink(path string) CheckpointSink { return core.NewFileSink(path) }

// SolveShardCheckpointed is SolveShard plus checkpointing: every cfg.Every
// rounds the shard's resumable image is handed to the sink. A sink error
// fails the run (fail-closed: no silent gaps in the recovery chain).
func SolveShardCheckpointed(inst *Instance, cfg DistConfig, span Span, seed int64, tr Transport, ck CheckpointConfig) (*Fragment, error) {
	return core.SolveShardCheckpointed(inst, cfg, span, seed, tr, ck)
}

// DecodeShardCheckpoint parses a checkpoint image (fail-closed).
func DecodeShardCheckpoint(p []byte) (*Checkpoint, error) {
	return core.DecodeCheckpoint(p)
}

// ResumeShard restarts a shard from a checkpoint image: recorded rounds
// replay locally (bit-identically — same RNG draws, same decisions), then
// the shard continues live on tr. The image's identity header must match
// the deployment exactly; any mismatch is rejected before replay.
func ResumeShard(inst *Instance, cfg DistConfig, span Span, seed int64, image []byte, tr Transport, ck CheckpointConfig) (*Fragment, error) {
	return core.ResumeShard(inst, cfg, span, seed, image, tr, ck)
}

// AssembleShards combines per-shard fragments into a certified solution.
// A nil fragment marks a shard that died: its nodes are masked like
// crashed nodes and surviving clients assigned into the lost span are
// exempted as orphaned. The result is certified before being returned.
func AssembleShards(inst *Instance, cfg DistConfig, frags []*Fragment) (*Solution, *DistReport, error) {
	return core.Assemble(inst, cfg, frags)
}

// Certify independently validates a distributed run's solution against
// its report: feasibility modulo the report's dead/unservable exemptions,
// plus recomputed cost and open-facility accounting. SolveDistributed
// already certifies internally; call this to re-check a solution you
// stored, transformed, or received from elsewhere.
func Certify(inst *Instance, sol *Solution, rep *DistReport) error {
	return core.Certify(inst, sol, rep)
}

// CertifyCap is Certify for soft-capacitated solutions.
func CertifyCap(inst *Instance, capacity int, sol *CapSolution, rep *DistReport) error {
	return core.CertifyCap(inst, capacity, sol, rep)
}

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

// SolveSoftCapGreedy is the sequential greedy baseline for the
// soft-capacitated problem.
func SolveSoftCapGreedy(inst *Instance, capacity int) (*CapSolution, error) {
	return seq.SoftCapGreedy(inst, capacity)
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
	// SolveGreedyFast computes the identical solution with lazy-heap
	// evaluation; prefer it on large instances.
	SolveGreedyFast = seq.GreedyFast
	// SolveJainVazirani is the primal-dual 3-approximation (metric).
	SolveJainVazirani = seq.JainVazirani
	// SolveJMS is the Jain-Mahdian-Saberi 1.861-approximation (metric).
	SolveJMS = seq.JMS
	// SolveMettuPlaxton is the radius-based single-pass algorithm
	// (constant-factor on metric instances).
	SolveMettuPlaxton = seq.MettuPlaxton
	// SolveExact is exact branch-and-bound for small facility counts.
	SolveExact = seq.Exact
	// SolveOpenAll opens everything (upper anchor).
	SolveOpenAll = seq.OpenAll
	// SolveCheapestPerClient opens every client's cheapest facility.
	SolveCheapestPerClient = seq.CheapestPerClient
)

// LocalSearchConfig tunes SolveLocalSearch.
type LocalSearchConfig = seq.LocalSearchConfig

// SolveLocalSearch polishes a starting solution with add/drop/swap moves;
// a nil start begins from SolveCheapestPerClient.
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
	// SpreadFamily controls the coefficient spread rho exactly.
	SpreadFamily = gen.Spread
	// Euclidean is the planar metric family.
	Euclidean = gen.Euclidean
	// Clustered is the Gaussian-blob metric family.
	Clustered = gen.Clustered
	// Grid is the Manhattan-lattice metric family.
	Grid = gen.Grid
	// Line is the 1-D metric family.
	Line = gen.Line
	// SetCoverLike is the greedy-adversarial family.
	SetCoverLike = gen.SetCoverLike
	// Star is the symmetry-breaking stress family.
	Star = gen.Star
)

// GeneratorByName returns a default-parameterized generator for a named
// family ("uniform", "euclidean", ...).
func GeneratorByName(family string, m, nc int) (Generator, error) {
	return gen.ByName(family, m, nc)
}
