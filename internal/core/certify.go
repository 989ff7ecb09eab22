package core

import (
	"errors"
	"fmt"

	"dfl/internal/fl"
)

// Certify is the solution certifier: an independent check that a run's
// output is a feasible facility-location solution and that the report's
// accounting is internally consistent. It is deliberately dumb — it
// recomputes everything from the instance and the solution, sharing no
// code path with the protocol — so a protocol bug, a fault schedule that
// broke the repair pass, or a corrupted solution all surface here rather
// than as a silently wrong cost.
//
// The fault exemptions come from rep: clients listed in DeadClients
// (crashed, never finished), UnservableClients (finished, but every
// reachable facility was dead), ByzantineClients (compromised, state
// untrusted), DeceivedClients (honest, but lured to a byzantine facility)
// or OrphanedClients (committed to a facility whose shard died, see
// Assemble)
// are required to be unassigned rather than assigned; facilities listed in
// DeadFacilities or ByzantineFacilities are required to be closed. Every
// other client must be assigned along a real edge to an open facility —
// under any corruption, crash and byzantine schedule, that is the
// certified guarantee for honest servable clients. The Quarantined* lists
// carry no exemption (quarantine already shaped the run); the certifier
// only validates their ids. A nil rep certifies with no exemptions, which
// makes Certify a strict superset of fl.Validate.
func Certify(inst *fl.Instance, sol *fl.Solution, rep *Report) error {
	if sol == nil {
		return errors.New("core: certify: nil solution")
	}
	if len(sol.Open) != inst.M() {
		return fmt.Errorf("core: certify: solution has %d facilities, instance has %d", len(sol.Open), inst.M())
	}
	if len(sol.Assign) != inst.NC() {
		return fmt.Errorf("core: certify: solution has %d clients, instance has %d", len(sol.Assign), inst.NC())
	}
	exemptClient, deadFacility, err := exemptions(inst, rep)
	if err != nil {
		return err
	}
	for j, i := range sol.Assign {
		if exemptClient != nil && exemptClient[j] {
			if i != fl.Unassigned {
				return fmt.Errorf("core: certify: exempt client %d is assigned to facility %d", j, i)
			}
			continue
		}
		switch {
		case i == fl.Unassigned:
			return fmt.Errorf("core: certify: client %d is unassigned", j)
		case i < 0 || i >= inst.M():
			return fmt.Errorf("core: certify: client %d assigned to invalid facility %d", j, i)
		case !sol.Open[i]:
			return fmt.Errorf("core: certify: client %d assigned to closed facility %d", j, i)
		}
		if _, ok := inst.Cost(i, j); !ok {
			return fmt.Errorf("core: certify: client %d assigned to facility %d with no edge", j, i)
		}
	}
	for i, dead := range deadFacility {
		if dead && sol.Open[i] {
			return fmt.Errorf("core: certify: dead facility %d is open", i)
		}
	}
	if rep != nil {
		if c := sol.Cost(inst); c != rep.Cost {
			return fmt.Errorf("core: certify: recomputed cost %d != reported %d", c, rep.Cost)
		}
		if n := sol.OpenCount(); n != rep.OpenFacilities {
			return fmt.Errorf("core: certify: %d open facilities != reported %d", n, rep.OpenFacilities)
		}
	}
	return nil
}

// CertifyCap is Certify for the soft-capacitated variant: the same
// exemption rules, plus per-copy capacity accounting — every facility's
// realized load must fit in cap clients per open copy.
func CertifyCap(inst *fl.Instance, cap int, sol *fl.CapSolution, rep *Report) error {
	if sol == nil {
		return errors.New("core: certify: nil capacitated solution")
	}
	if cap < 1 {
		return fmt.Errorf("core: certify: capacity must be >= 1, got %d", cap)
	}
	if len(sol.Copies) != inst.M() {
		return fmt.Errorf("core: certify: solution has %d facilities, instance has %d", len(sol.Copies), inst.M())
	}
	if len(sol.Assign) != inst.NC() {
		return fmt.Errorf("core: certify: solution has %d clients, instance has %d", len(sol.Assign), inst.NC())
	}
	exemptClient, deadFacility, err := exemptions(inst, rep)
	if err != nil {
		return err
	}
	load := make([]int, inst.M())
	for j, i := range sol.Assign {
		if exemptClient != nil && exemptClient[j] {
			if i != fl.Unassigned {
				return fmt.Errorf("core: certify: exempt client %d is assigned to facility %d", j, i)
			}
			continue
		}
		switch {
		case i == fl.Unassigned:
			return fmt.Errorf("core: certify: client %d is unassigned", j)
		case i < 0 || i >= inst.M():
			return fmt.Errorf("core: certify: client %d assigned to invalid facility %d", j, i)
		case sol.Copies[i] < 1:
			return fmt.Errorf("core: certify: client %d assigned to facility %d with no open copy", j, i)
		}
		if _, ok := inst.Cost(i, j); !ok {
			return fmt.Errorf("core: certify: client %d assigned to facility %d with no edge", j, i)
		}
		load[i]++
	}
	open := 0
	for i, c := range sol.Copies {
		if c < 0 {
			return fmt.Errorf("core: certify: facility %d has negative copies %d", i, c)
		}
		if c > 0 {
			open++
		}
		if deadFacility != nil && deadFacility[i] && c > 0 {
			return fmt.Errorf("core: certify: dead facility %d has %d open copies", i, c)
		}
		if load[i] > cap*c {
			return fmt.Errorf("core: certify: facility %d serves %d clients with %d copies of capacity %d", i, load[i], c, cap)
		}
	}
	if rep != nil {
		if c := sol.Cost(inst); c != rep.Cost {
			return fmt.Errorf("core: certify: recomputed cost %d != reported %d", c, rep.Cost)
		}
		if open != rep.OpenFacilities {
			return fmt.Errorf("core: certify: %d open facilities != reported %d", open, rep.OpenFacilities)
		}
	}
	return nil
}

// exemptions expands rep's exemption lists into dense lookup slices,
// rejecting out-of-range or duplicate entries (a corrupted report must not
// silently widen the exemption set). A client id may appear once across
// the five client classes and a facility id once across the two facility
// classes; each Quarantined* list is checked on its own, since quarantine
// grants no exemption and may overlap the others. A nil rep yields no
// exemptions.
func exemptions(inst *fl.Instance, rep *Report) (exemptClient, deadFacility []bool, err error) {
	if rep == nil {
		return nil, nil, nil
	}
	mark := func(dst []bool, ids []int, what string) ([]bool, error) {
		for _, id := range ids {
			if id < 0 || id >= len(dst) {
				return nil, fmt.Errorf("core: certify: report names %s %d outside [0,%d)", what, id, len(dst))
			}
			if dst[id] {
				return nil, fmt.Errorf("core: certify: report names %s %d twice", what, id)
			}
			dst[id] = true
		}
		return dst, nil
	}
	exemptClient = make([]bool, inst.NC())
	if exemptClient, err = mark(exemptClient, rep.DeadClients, "client"); err != nil {
		return nil, nil, err
	}
	if exemptClient, err = mark(exemptClient, rep.UnservableClients, "client"); err != nil {
		return nil, nil, err
	}
	if exemptClient, err = mark(exemptClient, rep.ByzantineClients, "client"); err != nil {
		return nil, nil, err
	}
	if exemptClient, err = mark(exemptClient, rep.DeceivedClients, "client"); err != nil {
		return nil, nil, err
	}
	if exemptClient, err = mark(exemptClient, rep.OrphanedClients, "client"); err != nil {
		return nil, nil, err
	}
	deadFacility = make([]bool, inst.M())
	if deadFacility, err = mark(deadFacility, rep.DeadFacilities, "facility"); err != nil {
		return nil, nil, err
	}
	if deadFacility, err = mark(deadFacility, rep.ByzantineFacilities, "facility"); err != nil {
		return nil, nil, err
	}
	// The quarantine lists grant no exemption, but a report that names
	// out-of-range ids is corrupted all the same.
	if _, err = mark(make([]bool, inst.M()), rep.QuarantinedFacilities, "quarantined facility"); err != nil {
		return nil, nil, err
	}
	if _, err = mark(make([]bool, inst.NC()), rep.QuarantinedClients, "quarantined client"); err != nil {
		return nil, nil, err
	}
	return exemptClient, deadFacility, nil
}
