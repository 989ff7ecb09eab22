package bench

import (
	"fmt"

	"dfl/internal/congest"
	"dfl/internal/core"
	"dfl/internal/fl"
	"dfl/internal/gen"
)

// ByzantineResilience regenerates Table 13 (E15): what an active adversary
// — per-message corruption and byzantine nodes running lure/deception
// attacks — costs, and what the defence layers buy back. Every adversarial
// schedule runs with the sender-quarantine layer armed (the default) and
// forced off, and each run is re-certified through core.Certify on top of
// Solve's internal check: the claim under test is that honest servable
// clients stay certified-served under every schedule, with quarantine
// recovering clients the undefended run abandons to the attacker.
func ByzantineResilience(p Params) ([]Table, error) {
	m, nc := 24, 120
	inst, err := gen.Uniform{M: m, NC: nc, Density: 0.6, MinDegree: 2}.Generate(p.Seed)
	if err != nil {
		return nil, err
	}
	lb, err := lowerBound(inst)
	if err != nil {
		return nil, err
	}

	type schedule struct {
		name string
		f    congest.Faults
	}
	schedules := []schedule{{name: "none"}}
	if p.FaultSpec != "" {
		f, err := ParseFaultSpec(p.FaultSpec)
		if err != nil {
			return nil, err
		}
		schedules = append(schedules, schedule{name: p.FaultSpec, f: f})
	} else {
		schedules = append(schedules,
			schedule{name: "corrupt=0.2", f: congest.Faults{CorruptProb: 0.2}},
			schedule{name: "corrupt=0.5", f: congest.Faults{CorruptProb: 0.5}},
			// Facility 0 runs the pure lure attack, facility 3 the deceiver
			// (the protocol-aware forger splits styles by node parity).
			schedule{name: "2 byz facilities", f: congest.Faults{ByzantineFromRound: map[int]int{0: 0, 3: 0}}},
			schedule{name: "2 byz clients", f: congest.Faults{ByzantineFromRound: map[int]int{m + 1: 0, m + 2: 0}}},
			// The headline composite: corruption, two byzantine facilities
			// and a mid-sweep crash at once.
			schedule{name: "byz+corrupt+crash", f: congest.Faults{
				CorruptProb:        0.2,
				ByzantineFromRound: map[int]int{0: 0, 3: 0},
				CrashAtRound:       map[int]int{5: 25},
			}},
		)
	}

	t := Table{
		ID:    "T13",
		Title: "Byzantine resilience: corruption, forgery, and sender quarantine (K=16)",
		Note: fmt.Sprintf("uniform m=%d nc=%d; avg of %d seeds; served = clients certified-assigned; exempt = byzantine+deceived+dead+unservable; adversarial traffic (corrupted/forged/rejected) accounted apart from protocol messages",
			m, nc, p.runs()),
		Columns: []string{"schedule", "quarantine", "ratio", "served", "exempt", "deceived", "quarantined", "corrupted", "forged", "rejected", "certified"},
	}
	for _, sc := range schedules {
		adversarial := sc.f.CorruptProb > 0 || len(sc.f.ByzantineFromRound) > 0
		for _, guard := range []bool{true, false} {
			if !guard && !adversarial {
				continue // quarantine is dormant without an adversary; skip the duplicate row
			}
			var (
				total       int64
				served      int
				exempt      int
				deceived    int
				quarantined int
				corrupted   int64
				forged      int64
				rejected    int64
			)
			for s := 0; s < p.runs(); s++ {
				opts := []core.Option{core.WithSeed(p.Seed + int64(s)), core.WithFaults(sc.f)}
				if !guard {
					opts = append(opts, core.WithQuarantine(false))
				}
				sol, rep, err := core.Solve(inst, core.Config{K: 16}, opts...)
				if err != nil {
					return nil, fmt.Errorf("schedule %q: %w", sc.name, err)
				}
				if err := core.Certify(inst, sol, rep); err != nil {
					return nil, fmt.Errorf("schedule %q failed certification: %w", sc.name, err)
				}
				total += rep.Cost
				for _, a := range sol.Assign {
					if a != fl.Unassigned {
						served++
					}
				}
				exempt += len(rep.ByzantineClients) + len(rep.DeceivedClients) +
					len(rep.DeadClients) + len(rep.UnservableClients)
				deceived += len(rep.DeceivedClients)
				quarantined += len(rep.QuarantinedFacilities) + len(rep.QuarantinedClients)
				corrupted += rep.Net.Corrupted
				forged += rep.Net.Forged
				rejected += rep.Net.Rejected
			}
			runs := int64(p.runs())
			g := "on"
			if !guard {
				g = "off"
			}
			if !adversarial {
				g = "dormant"
			}
			t.Add(sc.name, g, f64(float64(total)/float64(runs)/float64(lb)),
				f64(float64(served)/float64(p.runs())),
				f64(float64(exempt)/float64(p.runs())),
				f64(float64(deceived)/float64(p.runs())),
				f64(float64(quarantined)/float64(p.runs())),
				i64(corrupted/runs), i64(forged/runs), i64(rejected/runs), "ok")
		}
	}
	return []Table{t}, nil
}
