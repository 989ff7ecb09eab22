package core

import (
	"errors"
	"fmt"

	"dfl/internal/congest"
	"dfl/internal/fl"
)

// ErrInfeasible is returned when some client has no incident facility.
var ErrInfeasible = errors.New("core: instance has a client with no incident facility")

// Report describes one distributed run: the derived protocol parameters,
// what the execution cost in the CONGEST model's currency, and how the
// solution was assembled.
type Report struct {
	Derived Derived
	Net     congest.Stats
	// CleanupClients counts clients connected by the final fallback rather
	// than the phase sweep (ablation E7 tracks this share).
	CleanupClients int
	// CleanupFacilities counts facilities opened only by the fallback.
	CleanupFacilities int
	// OpenFacilities is the total number of open facilities in the returned
	// solution (after dead-node masking).
	OpenFacilities int
	// RepairedClients counts clients the self-healing repair pass had to
	// reassign (their facility crashed, or a GRANT/CONNECT was lost).
	RepairedClients int
	// Cost is the total cost of the returned solution, recomputed and
	// cross-checked by the certifier.
	Cost int64
	// DeadFacilities and DeadClients list nodes that never completed the
	// protocol — crashed by the fault schedule without recovering in time.
	// Their state is masked out of the returned solution.
	DeadFacilities []int
	DeadClients    []int
	// UnservableClients lists clients that finished the protocol but found
	// every reachable facility dead; they end unassigned and the certifier
	// exempts them from the feasibility check.
	UnservableClients []int
	// ByzantineFacilities and ByzantineClients list the nodes the fault
	// schedule marked byzantine (ids from congest.Faults.ByzantineFromRound,
	// split by role). Whatever state a byzantine node holds is adversarial
	// and is masked out of the returned solution — facilities forced closed,
	// clients forced unassigned — and the certifier treats the ids as
	// exemptions, like dead nodes. The lists are disjoint from Dead*.
	ByzantineFacilities []int
	ByzantineClients    []int
	// DeceivedClients lists honest clients whose final assignment pointed
	// at a byzantine facility (a forged CONNECT or an equivocating repair
	// beacon lured them). Without authenticated channels that deception is
	// not locally detectable, so the solver masks them unassigned and the
	// certifier exempts them — the byzantine analogue of the paper-line
	// outlier exemption.
	DeceivedClients []int
	// OrphanedClients lists clients of a distributed run whose committed
	// assignment pointed at a dead facility — one whose shard died too late
	// for the repair tail to renegotiate, or that never completed (see
	// Assemble). They are masked unassigned and exempted by the certifier —
	// the transport-layer analogue of DeceivedClients. Always empty on
	// in-process runs: there a client left committed to a facility crashed
	// after the repair beacons stays assigned, and certification fails.
	OrphanedClients []int
	// QuarantinedFacilities and QuarantinedClients list nodes condemned by
	// at least one honest peer's sender-quarantine layer (see
	// quarantine.go). Informational: quarantine already shaped the run (a
	// condemned node's traffic was dropped and the repair tail avoided it);
	// the certifier validates the ids but derives no exemption from them —
	// an honest client stranded by quarantining every reachable facility
	// surfaces in UnservableClients.
	QuarantinedFacilities []int
	QuarantinedClients    []int
}

// options collects run-level knobs; see the With* functions.
type options struct {
	seed        int64
	parallel    bool
	shards      int
	bitLimit    int // <0: engine default from network size; 0: unlimited
	observer    func(round int, delivered []congest.Message)
	quarantine  *bool // nil: auto (armed when corruption/byzantine present)
	faults      congest.Faults
	retryBudget int // reliable-delivery shim budget; 0 = shim off
}

// Option configures Solve.
type Option func(*options)

// WithSeed sets the seed for all protocol randomness. Runs are fully
// reproducible from (instance, config, seed).
func WithSeed(seed int64) Option { return func(o *options) { o.seed = seed } }

// WithParallel runs the simulator with its persistent worker-pool round
// executor. The execution is identical to the sequential one, so a run
// with faults, the reliable-delivery shim or an observer, which needs the
// simulator's sequential fault pipeline, takes the sequential runner.
func WithParallel(parallel bool) Option { return func(o *options) { o.parallel = parallel } }

// WithShards sets the number of shards — contiguous node-id ranges — the
// parallel runner splits the communication graph into (each shard is owned
// by one persistent worker); 0 means GOMAXPROCS. It has no effect on a
// sequential run.
// Executions are byte-identical across shard counts — the shard-local
// ingest preserves the solver's delivery-order assumption (inboxes sorted
// by sender id) — so this is purely a performance knob. A run with faults,
// the reliable-delivery shim or an observer takes the sequential runner,
// where it has no effect either.
func WithShards(shards int) Option { return func(o *options) { o.shards = shards } }

// WithBitLimit overrides the CONGEST message-size budget in bits
// (0 disables the check). The default is congest.SuggestedBitLimit of the
// network size.
func WithBitLimit(bits int) Option { return func(o *options) { o.bitLimit = bits } }

// WithObserver installs a per-round observer that receives every delivered
// message; used by the tracing tool.
func WithObserver(f func(round int, delivered []congest.Message)) Option {
	return func(o *options) { o.observer = f }
}

// WithFaults injects a fault schedule into the run (see congest.Faults):
// probabilistic drops, duplication, bounded reordering and corruption,
// burst/link/partition windows, crash-with-recovery, and byzantine nodes.
// A DropProb, DelayProb or CorruptProb given without an explicit
// ...UntilRound window is clamped to the phase sweep, keeping the
// cleanup-and-repair tail a reliable commitment barrier; set the window
// explicitly to push those faults into the tail (the certifier will tell
// you whether the solution survived). Crash/recovery schedules and the
// other deterministic windows are passed through verbatim. Byzantine nodes (ByzantineFromRound; facility i is node i,
// client j is node m+j) stay adversarial through the tail and get the
// protocol-aware forger unless Forger is set; their own results are masked
// out of the solution and reported in Byzantine*, the honest clients they
// deceived in DeceivedClients. Corruption or byzantine nodes arm the
// sender-quarantine layer (see WithQuarantine) and fail-closed decoding;
// rejected frames are counted in the report's Net.Rejected.
func WithFaults(f congest.Faults) Option {
	return func(o *options) { o.faults = f }
}

// WithReliableDelivery layers the engine's per-link ack/retransmit shim
// under every protocol message, with the given per-frame retransmission
// budget (see congest.Reliable). Retransmit and ack traffic is accounted
// separately in the report's Net stats, never in Messages/Bits.
func WithReliableDelivery(retryBudget int) Option {
	return func(o *options) { o.retryBudget = retryBudget }
}

// WithQuarantine forces the sender-quarantine layer on or off, overriding
// the default (armed exactly when the fault schedule includes corruption or
// byzantine nodes). Forcing it off under a byzantine schedule measures the
// undefended protocol; forcing it on elsewhere subjects honest runs to the
// layer's soft-evidence rules (e.g. repeated unanswered grants), which can
// trade solution quality for suspicion even without an adversary.
func WithQuarantine(on bool) Option {
	return func(o *options) { o.quarantine = &on }
}

// Solve runs the distributed facility-location protocol on inst at the
// trade-off point selected by cfg and returns the (always feasible)
// solution together with a run report. For the soft-capacitated variant
// use SolveSoftCap.
func Solve(inst *fl.Instance, cfg Config, opts ...Option) (*fl.Solution, *Report, error) {
	if cfg.SoftCapacity > 0 {
		return nil, nil, errors.New("core: Solve is uncapacitated; use SolveSoftCap")
	}
	r, err := newRun(inst, cfg)
	if err != nil {
		return nil, nil, err
	}
	rep, err := runProtocol(inst, r, opts)
	if err != nil {
		return nil, nil, err
	}
	sol := settle(inst, rep, false, r.facility, r.client)
	rep.OpenFacilities, rep.Cost = sol.OpenCount(), sol.Cost(inst)
	if err := Certify(inst, sol, rep); err != nil {
		return nil, nil, fmt.Errorf("core: protocol produced invalid solution: %w", err)
	}
	return sol, rep, nil
}

// SolveSoftCap runs the protocol in soft-capacitated mode: every copy of a
// facility costs its opening cost again and serves at most
// cfg.SoftCapacity clients. The returned solution is always feasible under
// that capacity.
func SolveSoftCap(inst *fl.Instance, cfg Config, opts ...Option) (*fl.CapSolution, *Report, error) {
	if cfg.SoftCapacity < 1 {
		return nil, nil, errors.New("core: SolveSoftCap needs SoftCapacity >= 1")
	}
	r, err := newRun(inst, cfg)
	if err != nil {
		return nil, nil, err
	}
	rep, err := runProtocol(inst, r, opts)
	if err != nil {
		return nil, nil, err
	}
	sol := &fl.CapSolution{
		Copies: make([]int, inst.M()),
		Assign: settle(inst, rep, false, r.facility, r.client).Assign,
	}
	// Faults can leave the facilities' committed copy counts out of step
	// with the realized load in both directions: a lost CONNECT leaves a
	// facility over-provisioned, a lost REPAIR-JOIN under-provisioned.
	// Raising where short (feasibility) and trimming the excess (free)
	// ends at exactly the copies the load needs, so the copies are set to
	// that directly. A masked facility carries no load unless a late crash
	// left a client committed to it, which CertifyCap then rejects.
	for i, load := range sol.Load(inst) {
		sol.Copies[i] = fl.CopiesNeeded(load, cfg.SoftCapacity)
		if sol.Copies[i] > 0 {
			rep.OpenFacilities++
		}
	}
	rep.Cost = sol.Cost(inst)
	if err := CertifyCap(inst, cfg.SoftCapacity, sol, rep); err != nil {
		return nil, nil, fmt.Errorf("core: protocol produced invalid capacitated solution: %w", err)
	}
	return sol, rep, nil
}

// run is one protocol execution's set-up, shared by the in-process solvers
// and SolveShard: the derived parameters, the communication graph and the
// full node population (facility i is node i, client j is node m+j). Every
// shard of a deployment builds the whole deterministic population, so edge
// tables and derived parameters agree everywhere; RunShard initializes and
// runs only the span-local nodes.
type run struct {
	d          Derived
	graph      *congest.Graph
	facilities []*facilityNode
	clients    []*clientNode
	nodes      []congest.Node
}

func newRun(inst *fl.Instance, cfg Config) (*run, error) {
	if !inst.Connectable() {
		return nil, ErrInfeasible
	}
	d, err := Derive(inst, cfg)
	if err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	graph, err := buildGraph(inst)
	if err != nil {
		return nil, fmt.Errorf("core: build communication graph: %w", err)
	}
	// Struct-of-arrays construction: both sides come out of flat per-run
	// allocations (see newFacilityNodes), not m+nc individual ones.
	r := &run{
		d:          d,
		graph:      graph,
		facilities: newFacilityNodes(inst, graph, cfg, d),
		clients:    newClientNodes(inst, cfg, d),
	}
	r.nodes = make([]congest.Node, 0, len(r.facilities)+len(r.clients))
	for _, f := range r.facilities {
		r.nodes = append(r.nodes, f)
	}
	for _, c := range r.clients {
		r.nodes = append(r.nodes, c)
	}
	return r, nil
}

// facility and client harvest the committed state of facility i and
// client j; every result path — Solve, SolveSoftCap and the Fragment a
// shard ships to Assemble — reads node state through them.
func (r *run) facility(i int) FacilityState {
	f := r.facilities[i]
	return FacilityState{Done: f.done, Open: f.open, OpenedInCleanup: f.openedInCleanup}
}

func (r *run) client(j int) ClientState {
	c := r.clients[j]
	return ClientState{
		Done:             c.done,
		CleanupConnected: c.cleanupConnected,
		RepairConnected:  c.repairConnected,
		Assigned:         c.assigned,
	}
}

// runProtocol is the in-process engine run behind Solve and SolveSoftCap,
// over the set-up r that newRun built: the option-driven fault schedule
// and quarantine, and the report fields only the in-process engine knows
// (network stats, byzantine and quarantine lists).
func runProtocol(inst *fl.Instance, r *run, opts []Option) (*Report, error) {
	d, m, nc := r.d, inst.M(), inst.NC()
	o := options{bitLimit: -1}
	for _, opt := range opts {
		opt(&o)
	}
	bitLimit := o.bitLimit
	if bitLimit < 0 {
		bitLimit = congest.SuggestedBitLimit(r.graph.N())
	}

	faults := o.faults
	// Probabilistic faults with no explicit window stay out of the
	// cleanup-and-repair tail: those rounds are the protocol's reliable
	// commitment barrier.
	if faults.DropProb > 0 && faults.DropUntilRound == 0 {
		faults.DropUntilRound = d.ProtoRounds
	}
	if faults.DelayProb > 0 && faults.DelayUntilRound == 0 {
		faults.DelayUntilRound = d.ProtoRounds
	}
	if faults.CorruptProb > 0 && faults.CorruptUntilRound == 0 {
		faults.CorruptUntilRound = d.ProtoRounds
	}
	// Byzantine nodes stay adversarial through the tail — that is the
	// attack the quarantine layer and the byzantine masking defend against
	// — and get the protocol-aware forger unless the caller installed one.
	if len(faults.ByzantineFromRound) > 0 && faults.Forger == nil {
		faults.Forger = flForger(m, d)
	}
	// The sender-quarantine layer arms itself exactly when the schedule can
	// put adversarial bytes on the wire; honest and omission-only runs keep
	// the unguarded hot path (and its byte-identical executions).
	guard := faults.CorruptProb > 0 || len(faults.ByzantineFromRound) > 0
	if o.quarantine != nil {
		guard = *o.quarantine
	}
	if guard {
		for _, f := range r.facilities {
			f.sentry = newSentry()
		}
		for _, c := range r.clients {
			c.sentry = newSentry()
		}
	}
	// A recovery scheduled near (or past) the normal end of the run still
	// deserves its rejoin-and-halt rounds before the budget trips.
	maxRounds := d.TotalRounds + 4
	// Commutative max: iteration order cannot change the result.
	for _, at := range faults.RecoverAtRound {
		if at+cleanupRounds+4 > maxRounds {
			maxRounds = at + cleanupRounds + 4
		}
	}
	stats, err := congest.Run(r.graph, r.nodes, congest.Config{
		BitLimit:  bitLimit,
		Seed:      o.seed,
		MaxRounds: maxRounds,
		Parallel:  o.parallel,
		Shards:    o.shards,
		Observer:  o.observer,
		Faults:    faults,
		Reliable:  congest.Reliable{RetryBudget: o.retryBudget},
	})
	if err != nil {
		return nil, fmt.Errorf("core: protocol execution: %w", err)
	}

	rep := &Report{Derived: d, Net: stats}
	// Materialize the byzantine schedule into the report (sorted by id) so
	// settle's masking pass and the certifier's exemption checks work from
	// the report alone.
	if len(faults.ByzantineFromRound) > 0 {
		for id := 0; id < m+nc; id++ {
			if _, byz := faults.ByzantineFromRound[id]; !byz {
				continue
			}
			if id < m {
				rep.ByzantineFacilities = append(rep.ByzantineFacilities, id)
			} else {
				rep.ByzantineClients = append(rep.ByzantineClients, id-m)
			}
		}
	}
	if guard {
		// Aggregate the per-node quarantine verdicts: facilities condemn
		// client node ids (>= m), clients condemn facility ids (< m). The
		// bitmaps dedup; emission by index keeps the lists sorted.
		qf := make([]bool, m)
		qc := make([]bool, nc)
		for _, f := range r.facilities {
			for _, id := range f.sentry.ids() {
				qc[id-m] = true
			}
		}
		for _, c := range r.clients {
			for _, id := range c.sentry.ids() {
				qf[id] = true
			}
		}
		for i, q := range qf {
			if q {
				rep.QuarantinedFacilities = append(rep.QuarantinedFacilities, i)
			}
		}
		for j, q := range qc {
			if q {
				rep.QuarantinedClients = append(rep.QuarantinedClients, j)
			}
		}
	}
	return rep, nil
}

// settle is the one result pass of every runner: it turns the committed
// node states, read through facility and client, into a solution, and
// fills rep's masking lists and counters; the caller prices the solution
// it returns. A node that never completed the protocol (the zero state
// included, which is how Assemble presents the nodes of a lost shard) is
// masked and listed in DeadFacilities/DeadClients. Byzantine nodes come from rep's Byzantine*
// lists (ByzantineClients sorted by id, as runProtocol emits it): their
// state is masked whatever it claims, and an honest client committed to a
// byzantine facility is masked and listed in DeceivedClients. orphan is
// the one rule that differs between callers: a client committed to a dead
// facility is masked and listed in OrphanedClients when set (Assemble: the
// facility's shard died too late for the repair tail), and left assigned
// otherwise (in-process: a crash after the beacons breaks feasibility, and
// the certifier says so). The counters read every facility's cleanup flag
// and every completed client's flags, masked or not.
func settle(inst *fl.Instance, rep *Report, orphan bool, facility func(i int) FacilityState, client func(j int) ClientState) *fl.Solution {
	m, nc := inst.M(), inst.NC()
	sol := fl.NewSolution(inst)
	deadF, byzF := make([]bool, m), make([]bool, m)
	for _, i := range rep.ByzantineFacilities {
		byzF[i] = true
	}
	for i := 0; i < m; i++ {
		fs := facility(i)
		if fs.OpenedInCleanup {
			rep.CleanupFacilities++
		}
		switch {
		case byzF[i]:
			// Already listed in ByzantineFacilities; keeps the Dead* lists
			// disjoint from the Byzantine* lists.
		case !fs.Done:
			rep.DeadFacilities = append(rep.DeadFacilities, i)
			deadF[i] = true
		default:
			sol.Open[i] = fs.Open
		}
	}
	byzC := rep.ByzantineClients
	for j := 0; j < nc; j++ {
		cs := client(j)
		if cs.Done && cs.CleanupConnected {
			rep.CleanupClients++
		}
		if cs.Done && cs.RepairConnected {
			rep.RepairedClients++
		}
		switch {
		case len(byzC) > 0 && byzC[0] == j:
			byzC = byzC[1:]
		case !cs.Done:
			rep.DeadClients = append(rep.DeadClients, j)
		case cs.Assigned == fl.Unassigned:
			rep.UnservableClients = append(rep.UnservableClients, j)
		case byzF[cs.Assigned]:
			rep.DeceivedClients = append(rep.DeceivedClients, j)
		case deadF[cs.Assigned] && orphan:
			rep.OrphanedClients = append(rep.OrphanedClients, j)
		default:
			sol.Assign[j] = cs.Assigned
		}
	}
	return sol
}

// SolveBest runs the protocol `runs` times with consecutive seeds starting
// at baseSeed and returns the cheapest solution with its report. Because
// every run is a constant number of rounds, running a few in sequence (or,
// in a real deployment, in parallel with disjoint port spaces) is the
// cheapest way to shave the variance of randomized symmetry breaking.
func SolveBest(inst *fl.Instance, cfg Config, baseSeed int64, runs int, opts ...Option) (*fl.Solution, *Report, error) {
	if runs < 1 {
		return nil, nil, errors.New("core: SolveBest needs at least one run")
	}
	var (
		best    *fl.Solution
		bestRep *Report
		bestC   int64
	)
	for s := 0; s < runs; s++ {
		// The per-run seed is appended last so it wins over any caller seed.
		runOpts := append(append([]Option(nil), opts...), WithSeed(baseSeed+int64(s)))
		sol, rep, err := Solve(inst, cfg, runOpts...)
		if err != nil {
			return nil, nil, fmt.Errorf("run %d: %w", s, err)
		}
		if c := sol.Cost(inst); best == nil || c < bestC {
			best, bestRep, bestC = sol, rep, c
		}
	}
	return best, bestRep, nil
}

// buildGraph constructs the bipartite communication graph of inst:
// facility i is node i, client j is node m+j.
func buildGraph(inst *fl.Instance) (*congest.Graph, error) {
	m := inst.M()
	return congest.Bipartite(m, inst.NC(), func(yield func(i, j int) bool) {
		for i := 0; i < m; i++ {
			for _, e := range inst.FacilityEdges(i) {
				if !yield(i, e.To) {
					return
				}
			}
		}
	})
}
