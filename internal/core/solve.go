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
	// assignment pointed at a facility on a shard that died too late for
	// the repair tail to renegotiate (see Assemble). They are masked
	// unassigned and exempted by the certifier — the transport-layer
	// analogue of DeceivedClients. Always empty on in-process runs.
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
	dropProb    float64
	corruptProb float64
	byzantine   map[int]int // node id -> byzantine-from round
	quarantine  *bool       // nil: auto (armed when corruption/byzantine present)
	faults      congest.Faults
	retryBudget int  // reliable-delivery shim budget; 0 = shim off
	dense       bool // reference O(n)-per-round scheduler (congest.Config.Dense)
}

// Option configures Solve.
type Option func(*options)

// WithSeed sets the seed for all protocol randomness. Runs are fully
// reproducible from (instance, config, seed).
func WithSeed(seed int64) Option { return func(o *options) { o.seed = seed } }

// WithParallel runs the simulator with its persistent worker-pool round
// executor. The execution is identical to the sequential one.
func WithParallel(parallel bool) Option { return func(o *options) { o.parallel = parallel } }

// WithShards sets the number of topology shards the parallel runner
// partitions the communication graph into (each shard is owned by one
// persistent worker); 0 means GOMAXPROCS. It has no effect on a
// sequential run.
// Executions are byte-identical across shard counts — the solver's
// delivery-order assumptions (inboxes sorted by sender id, fault draws in
// global sender order) are preserved by the per-destination-shard merge —
// so this is purely a performance knob.
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

// WithLossyNetwork drops each protocol message independently with
// probability p during the phase sweep. The cleanup rounds stay reliable
// (they are the protocol's commitment barrier), so the returned solution
// remains feasible at any loss rate — only its quality degrades. Used by
// the fault-sensitivity experiment (E9) and the failure-injection tests.
func WithLossyNetwork(p float64) Option {
	return func(o *options) { o.dropProb = p }
}

// WithFaults injects a full adversarial fault schedule — probabilistic
// drops, duplication and bounded reordering, burst/link/partition windows,
// and crash-with-recovery — into the run (see congest.Faults). As with
// WithLossyNetwork, a DropProb or DelayProb given without an explicit
// ...UntilRound window is clamped to the phase sweep, keeping the
// cleanup-and-repair tail a reliable commitment barrier; set the window
// explicitly to push faults into the tail (the certifier will tell you
// whether the solution survived). Crash/recovery schedules and the other
// deterministic windows are passed through verbatim.
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

// WithCorruption mutates each delivered protocol message independently with
// probability p — a bit flip, a truncation, or a forged kind byte (see
// congest.Faults.CorruptProb). Like WithLossyNetwork, the corruption window
// is clamped to the phase sweep unless the schedule sets
// CorruptUntilRound explicitly, so the cleanup-and-repair tail stays a
// reliable commitment barrier. Corruption arms the sender-quarantine layer
// and fail-closed decoding; rejected frames are counted in the report's
// Net.Rejected.
func WithCorruption(p float64) Option {
	return func(o *options) { o.corruptProb = p }
}

// WithByzantine marks the given node ids byzantine from the start of the
// given round: every message they put on the wire is adversarially forged —
// equivocating offers and beacons, bogus grants and connects — per the
// facility-location-aware forger this option installs (an explicit
// congest.Faults.Forger passed via WithFaults wins). Node ids follow the
// communication graph: facility i is node i, client j is node m+j. The
// byzantine nodes' own results are masked out of the solution and reported
// in Byzantine*; honest clients they deceived are masked and reported in
// DeceivedClients; Certify validates both as exemptions.
func WithByzantine(fromRound int, nodeIDs ...int) Option {
	return func(o *options) {
		if o.byzantine == nil {
			o.byzantine = make(map[int]int, len(nodeIDs))
		}
		for _, id := range nodeIDs {
			o.byzantine[id] = fromRound
		}
	}
}

// WithDenseEngine runs the simulator's dense reference scheduler, which
// walks the full node population every round and ignores the nodes'
// SleepUntil declarations (see congest.Config.Dense). Executions are
// byte-identical to the default frontier scheduler — that equality is
// exactly what pins the protocol's dormancy declarations as sound — so this
// is a verification and baseline-measurement knob, not a behavioral one.
// The dense scheduler is sequential only: Solve rejects it together with
// WithParallel.
func WithDenseEngine(dense bool) Option {
	return func(o *options) { o.dense = dense }
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
	facilities, clients, rep, err := runProtocol(inst, cfg, opts)
	if err != nil {
		return nil, nil, err
	}
	sol := fl.NewSolution(inst)
	byzF, byzC := byzMasks(rep, inst.M(), inst.NC())
	for i, f := range facilities {
		if byzF != nil && byzF[i] {
			// Byzantine: whatever the compromised node claims is masked to
			// closed; already listed in ByzantineFacilities. Keeps the Dead*
			// lists disjoint from the Byzantine* lists.
			continue
		}
		if !f.done {
			// The facility was crashed by the fault schedule and never
			// completed; whatever it believed is masked out. Clients it
			// served were reassigned by the repair pass.
			rep.DeadFacilities = append(rep.DeadFacilities, i)
			continue
		}
		sol.Open[i] = f.open
	}
	for j, c := range clients {
		if byzC != nil && byzC[j] {
			continue // byzantine: masked unassigned, listed in ByzantineClients
		}
		if !c.done {
			rep.DeadClients = append(rep.DeadClients, j)
			continue
		}
		if c.assigned != fl.Unassigned && byzF != nil && byzF[c.assigned] {
			// An honest client lured to a byzantine facility (forged CONNECT
			// or equivocating beacon). The facility is masked closed, so the
			// assignment cannot stand; exempted via DeceivedClients.
			rep.DeceivedClients = append(rep.DeceivedClients, j)
			continue
		}
		sol.Assign[j] = c.assigned
		if c.assigned == fl.Unassigned {
			rep.UnservableClients = append(rep.UnservableClients, j)
		}
	}
	rep.OpenFacilities = sol.OpenCount()
	rep.Cost = sol.Cost(inst)
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
	facilities, clients, rep, err := runProtocol(inst, cfg, opts)
	if err != nil {
		return nil, nil, err
	}
	sol := fl.NewCapSolution(inst)
	byzF, byzC := byzMasks(rep, inst.M(), inst.NC())
	for i, f := range facilities {
		if byzF != nil && byzF[i] {
			continue // byzantine: masked to zero copies, listed in ByzantineFacilities
		}
		if !f.done {
			rep.DeadFacilities = append(rep.DeadFacilities, i)
			continue
		}
		sol.Copies[i] = f.copies
	}
	for j, c := range clients {
		if byzC != nil && byzC[j] {
			continue // byzantine: masked unassigned, listed in ByzantineClients
		}
		if !c.done {
			rep.DeadClients = append(rep.DeadClients, j)
			continue
		}
		if c.assigned != fl.Unassigned && byzF != nil && byzF[c.assigned] {
			rep.DeceivedClients = append(rep.DeceivedClients, j)
			continue
		}
		sol.Assign[j] = c.assigned
		if c.assigned == fl.Unassigned {
			rep.UnservableClients = append(rep.UnservableClients, j)
		}
	}
	// Faults can leave copy counts out of step with the realized load in
	// both directions: a lost CONNECT leaves a facility over-provisioned, a
	// lost REPAIR-JOIN under-provisioned. Raise where short (feasibility),
	// then trim the excess (free).
	load := sol.Load(inst)
	for i := range sol.Copies {
		if need := fl.CopiesNeeded(load[i], cfg.SoftCapacity); need > sol.Copies[i] {
			sol.Copies[i] = need
		}
	}
	sol = fl.TrimCopies(inst, cfg.SoftCapacity, sol)
	for i := range sol.Copies {
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

// runProtocol is the shared engine run behind Solve and SolveSoftCap.
func runProtocol(inst *fl.Instance, cfg Config, opts []Option) ([]*facilityNode, []*clientNode, *Report, error) {
	if !inst.Connectable() {
		return nil, nil, nil, ErrInfeasible
	}
	d, err := Derive(inst, cfg)
	if err != nil {
		return nil, nil, nil, err
	}
	cfg = cfg.withDefaults()

	o := options{bitLimit: -1}
	for _, opt := range opts {
		opt(&o)
	}

	m, nc := inst.M(), inst.NC()
	graph, err := buildGraph(inst)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("core: build communication graph: %w", err)
	}
	bitLimit := o.bitLimit
	if bitLimit < 0 {
		bitLimit = congest.SuggestedBitLimit(graph.N())
	}

	// Struct-of-arrays construction: both sides come out of flat per-run
	// allocations (see newFacilityNodes), not m+nc individual ones.
	facilities := newFacilityNodes(inst, cfg, d)
	clients := newClientNodes(inst, cfg, d)
	nodes := make([]congest.Node, 0, m+nc)
	for i := 0; i < m; i++ {
		nodes = append(nodes, facilities[i])
	}
	for j := 0; j < nc; j++ {
		nodes = append(nodes, clients[j])
	}

	faults := o.faults
	if o.dropProb > 0 {
		faults.DropProb = o.dropProb
		faults.DropUntilRound = 0
	}
	if o.corruptProb > 0 {
		faults.CorruptProb = o.corruptProb
		faults.CorruptUntilRound = 0
	}
	if len(o.byzantine) > 0 {
		merged := make(map[int]int, len(faults.ByzantineFromRound)+len(o.byzantine))
		for id, at := range faults.ByzantineFromRound {
			merged[id] = at
		}
		for id, at := range o.byzantine {
			merged[id] = at
		}
		faults.ByzantineFromRound = merged
	}
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
		for _, f := range facilities {
			f.sentry = newSentry()
		}
		for _, c := range clients {
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
	stats, err := congest.Run(graph, nodes, congest.Config{
		BitLimit:  bitLimit,
		Seed:      o.seed,
		MaxRounds: maxRounds,
		Parallel:  o.parallel,
		Shards:    o.shards,
		Observer:  o.observer,
		Faults:    faults,
		Reliable:  congest.Reliable{RetryBudget: o.retryBudget},
		Dense:     o.dense,
	})
	if err != nil {
		return nil, nil, nil, fmt.Errorf("core: protocol execution: %w", err)
	}

	rep := &Report{Derived: d, Net: stats}
	for _, f := range facilities {
		if f.openedInCleanup {
			rep.CleanupFacilities++
		}
	}
	for _, c := range clients {
		if c.done && c.cleanupConnected {
			rep.CleanupClients++
		}
		if c.done && c.repairConnected {
			rep.RepairedClients++
		}
	}
	// Materialize the byzantine schedule into the report (sorted by id) so
	// Solve's masking pass and the certifier's exemption checks work from the
	// report alone.
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
		for _, f := range facilities {
			for _, id := range f.sentry.ids() {
				qc[id-m] = true
			}
		}
		for _, c := range clients {
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
	return facilities, clients, rep, nil
}

// byzMasks expands the report's byzantine id lists into role-indexed bitmaps
// for the masking passes in Solve and SolveSoftCap; both are nil when the
// run had no byzantine schedule.
func byzMasks(rep *Report, m, nc int) (byzF, byzC []bool) {
	if len(rep.ByzantineFacilities) == 0 && len(rep.ByzantineClients) == 0 {
		return nil, nil
	}
	byzF = make([]bool, m)
	for _, i := range rep.ByzantineFacilities {
		byzF[i] = true
	}
	byzC = make([]bool, nc)
	for _, j := range rep.ByzantineClients {
		byzC[j] = true
	}
	return byzF, byzC
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
