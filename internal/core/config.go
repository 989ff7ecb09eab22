package core

import (
	"fmt"

	"dfl/internal/fl"
)

// Config selects one point on the rounds-vs-approximation trade-off and
// fixes protocol knobs. The zero value is invalid; use K >= 1 and leave the
// rest zero for defaults.
type Config struct {
	// K is the trade-off parameter: the protocol spends Theta(K)
	// communication rounds and targets an O(sqrt(K) * (m*rho)^(1/sqrt(K)))
	// approximation factor. Larger K, more rounds, better factor.
	K int
	// ItersPerPhase overrides the number of offer/grant/open iterations per
	// threshold phase; 0 means ceil(sqrt(K)).
	ItersPerPhase int
	// Slack is the multiplicative tolerance a facility applies when
	// deciding to open after grants shrank its offered star; 0 means 1
	// (strict: the granted sub-star must still clear its class threshold).
	Slack int64
	// DeterministicPriorities replaces the randomized per-iteration offer
	// priorities with static facility ids (ablation E7 only; hurts
	// symmetry breaking on tie-heavy instances).
	DeterministicPriorities bool
	// SoftCapacity, when positive, switches the protocol to SOFT-CAPACITATED
	// facility location: every copy of a facility costs its opening cost
	// again and serves at most SoftCapacity clients. Use SolveSoftCap; the
	// uncapacitated Solve rejects a nonzero value. 0 means uncapacitated.
	SoftCapacity int
	// FineGrainedTieBreak is an extension beyond the paper's algorithm:
	// offers additionally carry a log2-quantized effectiveness (6 more
	// bits, still CONGEST-legal) and clients prefer the finer value before
	// the random priority. It improves measured quality inside coarse
	// chi-classes but decouples quality from chi, so the faithful
	// reconstruction keeps it off by default; the ablation (E7) measures
	// it.
	FineGrainedTieBreak bool
}

func (c Config) withDefaults() Config {
	if c.ItersPerPhase == 0 {
		c.ItersPerPhase = isqrtCeil(c.K)
	}
	if c.Slack == 0 {
		c.Slack = 1
	}
	return c
}

func (c Config) validate() error {
	if c.K < 1 {
		return fmt.Errorf("core: trade-off parameter K must be >= 1, got %d", c.K)
	}
	if c.ItersPerPhase < 0 {
		return fmt.Errorf("core: ItersPerPhase must be >= 0, got %d", c.ItersPerPhase)
	}
	if c.Slack < 0 {
		return fmt.Errorf("core: Slack must be >= 0, got %d", c.Slack)
	}
	if c.SoftCapacity < 0 {
		return fmt.Errorf("core: SoftCapacity must be >= 0, got %d", c.SoftCapacity)
	}
	return nil
}

// Derived holds the parameters the protocol computes from (instance,
// config) before the first round. In a fully decentralized deployment these
// would be obtained from m, rho and k — quantities the paper assumes known;
// the simulator computes them centrally and hands them to every node, which
// does not affect round or message accounting of the protocol proper.
type Derived struct {
	Chi           int64 // geometric class base, ceil((m*rho)^(1/sqrt(K)))
	Phases        int   // number of threshold phases, ceil(sqrt(K))
	ItersPerPhase int   // offer/grant/open iterations per phase
	Base          int64 // smallest positive coefficient: first threshold anchor
	Rho           int64 // instance coefficient spread
	ProtoRounds   int   // rounds spent in the phase sweep (4 per iteration)
	TotalRounds   int   // ProtoRounds + cleanup rounds
}

// cleanupRounds is the fixed tail after the phase sweep. Layout, with
// P = ProtoRounds:
//
//	P+0  clients  absorb the last CONNECT, FORCE the cheapest facility
//	P+1  facilities  answer FORCE: open and connect the forced clients
//	P+2  clients  absorb the forced CONNECT
//	P+3  facilities  broadcast a REPAIR-BEACON (proof of life + open status)
//	P+4  clients  repair pass: served clients halt; unserved clients
//	              rejoin the cheapest open facility (REPAIR-JOIN) or ask
//	              the cheapest alive one to open (REPAIR-FORCE)
//	P+5  facilities  account joins, open for REPAIR-FORCE, connect, halt
//	P+6  clients  on the force path absorb the repair CONNECT, halt
//
// The first three rounds are the paper's commitment barrier; the last four
// are the self-healing repair pass that re-serves clients whose facility
// crashed or whose GRANT/CONNECT was lost (see DESIGN.md).
const cleanupRounds = 7

// Soft-evidence thresholds of the sender-quarantine layer (quarantine.go).
// Soft anomalies are behaviours an adversary produces systematically but
// omission faults can also produce occasionally, so condemnation waits for
// repetition; the thresholds trade how fast a lure attack is shut down
// against how easily an unlucky honest neighbour is condemned (which costs
// solution quality, never feasibility — see DESIGN.md §11).
const (
	// grantMissThreshold condemns a facility after this many granted offers
	// it failed to answer with a CONNECT (the lure-offer attack signature).
	grantMissThreshold = 2
	// staleGrantThreshold condemns a client after this many grants that
	// answered no live offer.
	staleGrantThreshold = 3
)

// Derive computes the protocol parameters for inst under cfg.
func Derive(inst *fl.Instance, cfg Config) (Derived, error) {
	if err := cfg.validate(); err != nil {
		return Derived{}, err
	}
	cfg = cfg.withDefaults()
	phases := isqrtCeil(cfg.K)
	rho := inst.Spread()
	chi := fl.RootCeil(fl.MulSat(int64(inst.M()), rho), phases)
	if chi < 2 {
		chi = 2
	}
	d := Derived{
		Chi:           chi,
		Phases:        phases,
		ItersPerPhase: cfg.ItersPerPhase,
		Base:          inst.MinPositiveCost(),
		Rho:           rho,
	}
	d.ProtoRounds = 4 * d.Phases * d.ItersPerPhase
	d.TotalRounds = d.ProtoRounds + cleanupRounds
	return d, nil
}

// Threshold returns the effectiveness threshold of phase p (0-based):
// base * chi^(p+1), saturating.
func (d Derived) Threshold(p int) int64 {
	t := d.Base
	for q := 0; q <= p; q++ {
		t = fl.MulSat(t, d.Chi)
	}
	return t
}

// TheoreticalFactor returns the shape of the paper's approximation bound
// for these parameters, sqrt(K)*chi (constants elided): the value the
// benchmark harness prints next to measured ratios.
func (d Derived) TheoreticalFactor() float64 {
	return float64(d.Phases) * float64(d.Chi)
}

// isqrtCeil returns ceil(sqrt(k)) for k >= 0.
func isqrtCeil(k int) int {
	if k <= 0 {
		return 0
	}
	r := int(fl.ISqrt(int64(k)))
	if r*r < k {
		r++
	}
	return r
}
