package core

import (
	"testing"

	"dfl/internal/congest"
	"dfl/internal/fl"
)

// TestByzantineChaosMatrix is the acceptance grid for the byzantine
// hardening: schedules combining per-message corruption, byzantine
// facilities and clients, crashes and duplication must all yield a solution
// that re-certifies through the public API and is byte-identical across the
// sequential runner and shard counts of 1, 2, and 8 (invariant I5 under an
// active adversary; the parallel arm goes through WithShards so the shard
// spelling of the knob is covered end to end). Node ids: facility i is
// node i (m = 12), client j is node 12+j.
func TestByzantineChaosMatrix(t *testing.T) {
	inst := chaosInstance(t)
	cfg := Config{K: 16}

	schedules := []struct {
		name string
		f    congest.Faults
		opts []Option
		rel  int
	}{
		{name: "corrupt_light", opts: []Option{WithCorruption(0.2)}},
		{name: "corrupt_heavy", opts: []Option{WithCorruption(0.5)}},
		{name: "corrupt_reliable", opts: []Option{WithCorruption(0.3)}, rel: 3},
		{name: "corrupt_tail", f: congest.Faults{
			// An explicit window pushes corruption into the cleanup tail.
			CorruptProb:       0.2,
			CorruptUntilRound: 1 << 20,
		}},
		{name: "byz_facilities", opts: []Option{WithByzantine(0, 2, 7)}},
		{name: "byz_facility_late", opts: []Option{WithByzantine(40, 4)}},
		{name: "byz_clients", opts: []Option{WithByzantine(0, 12+5, 12+20)}},
		{name: "byz_mixed_roles", opts: []Option{WithByzantine(8, 1, 12+3)}},
		{name: "byz_undefended", opts: []Option{WithByzantine(0, 2, 7), WithQuarantine(false)}},
		// The headline acceptance scenario: corruption >= 0.2, two byzantine
		// facilities, a crash, and duplication, all at once.
		{name: "byz_corrupt_crash", f: congest.Faults{
			DupProb:      0.2,
			CrashAtRound: map[int]int{5: 9},
		}, opts: []Option{WithCorruption(0.2), WithByzantine(0, 2, 7)}},
		{name: "byz_corrupt_crash_reliable", f: congest.Faults{
			CrashAtRound: map[int]int{5: 9, 12 + 8: 13},
		}, opts: []Option{WithCorruption(0.25), WithByzantine(0, 2, 7)}, rel: 2},
	}

	for _, sc := range schedules {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			run := func(parallel bool, workers int) (*fl.Solution, *Report) {
				opts := []Option{WithSeed(31), WithFaults(sc.f),
					WithParallel(parallel), WithShards(workers)}
				opts = append(opts, sc.opts...)
				if sc.rel > 0 {
					opts = append(opts, WithReliableDelivery(sc.rel))
				}
				sol, rep, err := Solve(inst, cfg, opts...)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				return sol, rep
			}
			refSol, refRep := run(false, 0)
			// Solve certified already; certify again through the public API
			// so the exported exemption path is exercised too.
			if err := Certify(inst, refSol, refRep); err != nil {
				t.Fatal(err)
			}
			assertHonestServed(t, inst, refSol, refRep)
			for _, workers := range []int{1, 2, 8} {
				sol, rep := run(true, workers)
				if rep.Net != refRep.Net {
					t.Fatalf("workers=%d: net stats diverged:\n%+v\n%+v", workers, rep.Net, refRep.Net)
				}
				if rep.Cost != refRep.Cost {
					t.Fatalf("workers=%d: cost %d != %d", workers, rep.Cost, refRep.Cost)
				}
				for j := range refSol.Assign {
					if sol.Assign[j] != refSol.Assign[j] {
						t.Fatalf("workers=%d: assignment differs at client %d", workers, j)
					}
				}
				for i := range refSol.Open {
					if sol.Open[i] != refSol.Open[i] {
						t.Fatalf("workers=%d: open set differs at facility %d", workers, i)
					}
				}
			}
		})
	}
}

// assertHonestServed re-derives the certified contract by hand: every
// client outside the report's exemption lists is assigned along a real edge
// to an open facility, and the adversary did not void the whole solution —
// a majority of clients must still be served.
func assertHonestServed(t *testing.T, inst *fl.Instance, sol *fl.Solution, rep *Report) {
	t.Helper()
	exempt := make(map[int]bool)
	for _, lists := range [][]int{rep.DeadClients, rep.UnservableClients, rep.ByzantineClients, rep.DeceivedClients} {
		for _, j := range lists {
			exempt[j] = true
		}
	}
	served := 0
	for j, i := range sol.Assign {
		if exempt[j] {
			if i != fl.Unassigned {
				t.Fatalf("exempt client %d is assigned to %d", j, i)
			}
			continue
		}
		if i == fl.Unassigned {
			t.Fatalf("honest servable client %d left unassigned", j)
		}
		if !sol.Open[i] {
			t.Fatalf("client %d assigned to closed facility %d", j, i)
		}
		if _, ok := inst.Cost(i, j); !ok {
			t.Fatalf("client %d assigned to %d with no edge", j, i)
		}
		served++
	}
	if served <= inst.NC()/2 {
		t.Fatalf("only %d/%d clients served; adversary voided the run (exempt: %d)",
			served, inst.NC(), len(exempt))
	}
}

// TestByzantineMasking pins the masking discipline: byzantine nodes are
// reported, forced out of the solution, and kept disjoint from the Dead*
// lists; clients deceived into pointing at a byzantine facility are masked
// and exempted.
func TestByzantineMasking(t *testing.T) {
	inst := chaosInstance(t)
	sol, rep, err := Solve(inst, Config{K: 16}, WithSeed(7), WithByzantine(0, 2, 7, 12+4))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := rep.ByzantineFacilities, []int{2, 7}; !equalInts(got, want) {
		t.Fatalf("ByzantineFacilities = %v, want %v", got, want)
	}
	if got, want := rep.ByzantineClients, []int{4}; !equalInts(got, want) {
		t.Fatalf("ByzantineClients = %v, want %v", got, want)
	}
	if sol.Open[2] || sol.Open[7] {
		t.Fatal("byzantine facility still open in the masked solution")
	}
	if sol.Assign[4] != fl.Unassigned {
		t.Fatalf("byzantine client assigned to %d, want masked unassigned", sol.Assign[4])
	}
	for j, a := range sol.Assign {
		if a == 2 || a == 7 {
			t.Fatalf("client %d still assigned to a byzantine facility", j)
		}
	}
	for _, lists := range [][]int{rep.DeadFacilities, rep.DeadClients} {
		for _, id := range lists {
			for _, byz := range append(append([]int{}, rep.ByzantineFacilities...), rep.ByzantineClients...) {
				if id == byz {
					t.Fatalf("node %d appears in both Dead* and Byzantine* lists", id)
				}
			}
		}
	}
	for _, j := range rep.DeceivedClients {
		if sol.Assign[j] != fl.Unassigned {
			t.Fatalf("deceived client %d not masked unassigned", j)
		}
	}
}

// TestQuarantineCondemnsLureAttack pins the quarantine layer's reason for
// existing: a byzantine facility running the lure-offer attack (win every
// grant, never connect) accumulates unanswered-grant evidence and is
// condemned by at least one honest client, surfacing in the report.
func TestQuarantineCondemnsLureAttack(t *testing.T) {
	inst := chaosInstance(t)
	_, rep, err := Solve(inst, Config{K: 16}, WithSeed(7), WithByzantine(0, 2, 7))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.QuarantinedFacilities) == 0 {
		t.Fatal("lure-offer attack ran a full sweep without any client condemning the attacker")
	}
	for _, i := range rep.QuarantinedFacilities {
		if i < 0 || i >= inst.M() {
			t.Fatalf("quarantined facility id %d out of range", i)
		}
	}
}

// TestByzantineSoftCapCertified holds the capacitated variant to the same
// contract under the combined corruption + byzantine + crash schedule.
func TestByzantineSoftCapCertified(t *testing.T) {
	inst := chaosInstance(t)
	cfg := Config{K: 16, SoftCapacity: 4}
	run := func(parallel bool, workers int) (*fl.CapSolution, *Report) {
		sol, rep, err := SolveSoftCap(inst, cfg, WithSeed(17),
			WithFaults(congest.Faults{CrashAtRound: map[int]int{5: 9}}),
			WithCorruption(0.2), WithByzantine(0, 2, 7),
			WithParallel(parallel), WithShards(workers))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return sol, rep
	}
	refSol, refRep := run(false, 0)
	if err := CertifyCap(inst, cfg.SoftCapacity, refSol, refRep); err != nil {
		t.Fatal(err)
	}
	if refSol.Copies[2] != 0 || refSol.Copies[7] != 0 {
		t.Fatal("byzantine facility kept open copies")
	}
	for _, workers := range []int{1, 2, 8} {
		sol, rep := run(true, workers)
		if rep.Net != refRep.Net {
			t.Fatalf("workers=%d: net stats diverged", workers)
		}
		for j := range refSol.Assign {
			if sol.Assign[j] != refSol.Assign[j] {
				t.Fatalf("workers=%d: assignment differs at client %d", workers, j)
			}
		}
	}
}

// TestHonestRunAdversaryCountersZero is the stats-accounting regression
// test: a run with no corruption and no byzantine schedule must never touch
// the adversarial counters — the quarantine layer stays dormant and the
// honest hot path is exactly the seed's.
func TestHonestRunAdversaryCountersZero(t *testing.T) {
	inst := chaosInstance(t)
	for _, opts := range [][]Option{
		{WithSeed(3)},
		{WithSeed(3), WithLossyNetwork(0.3)},
		{WithSeed(3), WithReliableDelivery(2), WithFaults(congest.Faults{DropProb: 0.2})},
	} {
		_, rep, err := Solve(inst, Config{K: 16}, opts...)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Net.Corrupted != 0 || rep.Net.Forged != 0 || rep.Net.Rejected != 0 {
			t.Fatalf("honest run touched adversarial counters: %+v", rep.Net)
		}
		if len(rep.ByzantineFacilities)+len(rep.ByzantineClients)+
			len(rep.QuarantinedFacilities)+len(rep.QuarantinedClients)+
			len(rep.DeceivedClients) != 0 {
			t.Fatalf("honest run reported adversarial nodes: %+v", rep)
		}
	}
}

// TestCorruptionCountsRejections pins that corruption actually exercises the
// fail-closed path: with a heavy corruption rate the engine must both count
// corrupted frames and see the protocol reject some of them.
func TestCorruptionCountsRejections(t *testing.T) {
	inst := chaosInstance(t)
	_, rep, err := Solve(inst, Config{K: 16}, WithSeed(3), WithCorruption(0.5))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Net.Corrupted == 0 {
		t.Fatal("CorruptProb=0.5 corrupted nothing")
	}
	if rep.Net.Rejected == 0 {
		t.Fatal("heavy corruption produced no rejected frames; fail-closed path never ran")
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
