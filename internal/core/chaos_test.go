package core

import (
	"testing"

	"dfl/internal/congest"
	"dfl/internal/fl"
	"dfl/internal/gen"
)

// chaosInstance is the shared battleground for the fault matrix: dense
// enough that the repair pass always has somewhere to send a stranded
// client, small enough that the full matrix stays fast.
func chaosInstance(t *testing.T) *fl.Instance {
	t.Helper()
	inst, err := gen.Uniform{M: 12, NC: 60, Density: 0.6, MinDegree: 2}.Generate(42)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// TestChaosMatrix is the acceptance grid for the self-healing layer: every
// adversarial schedule — probabilistic drops up to 0.5, multiple crashes,
// crash-with-recovery, duplication, bounded reordering, bursts, partitions,
// and their combination, with and without the reliable shim — must yield a
// certified solution, byte-identical across the sequential runner and
// worker pools of 1, 2, and 8 (invariant I5 under faults).
//
// Node ids: facility i is node i (m = 12), client j is node 12+j. With
// K = 16 the sweep is 64 rounds; every crash lands strictly before the
// repair beacons at P+3 = 67, which is the fault model the repair pass is
// specified against (see DESIGN.md).
func TestChaosMatrix(t *testing.T) {
	inst := chaosInstance(t)
	cfg := Config{K: 16}

	schedules := []struct {
		name string
		f    congest.Faults
		rel  int // reliable-delivery retry budget; 0 = shim off
	}{
		// Fault-free first: Faults{} skips the fault delivery layer, so
		// this row is the one that drives the sharded per-destination
		// merge end to end through the solver (the faulty rows merge on
		// the caller goroutine, workers computing only).
		{name: "fault_free", f: congest.Faults{}},
		{name: "drop_light", f: congest.Faults{DropProb: 0.2}},
		{name: "drop_heavy", f: congest.Faults{DropProb: 0.5}},
		{name: "drop_reliable", f: congest.Faults{DropProb: 0.3}, rel: 3},
		{name: "crash_two_facilities", f: congest.Faults{
			CrashAtRound: map[int]int{3: 9, 7: 17},
		}},
		{name: "crash_recover", f: congest.Faults{
			CrashAtRound:   map[int]int{5: 11},
			RecoverAtRound: map[int]int{5: 23},
		}},
		{name: "crash_client", f: congest.Faults{
			CrashAtRound: map[int]int{14: 13, 30: 21},
		}},
		{name: "duplication", f: congest.Faults{DupProb: 0.3}},
		{name: "dup_drop", f: congest.Faults{DupProb: 0.3, DropProb: 0.3}},
		{name: "burst", f: congest.Faults{Bursts: []congest.RoundRange{{FromRound: 8, ToRound: 12}}}},
		{name: "partition", f: congest.Faults{Partitions: []congest.Partition{{
			Side:       []int{0, 1, 2, 3, 4, 5},
			RoundRange: congest.RoundRange{FromRound: 10, ToRound: 20},
		}}}},
		{name: "reorder", f: congest.Faults{DelayProb: 0.3, MaxDelay: 3}},
		{name: "kitchen_sink", f: congest.Faults{
			DropProb:       0.2,
			DupProb:        0.2,
			DelayProb:      0.2,
			MaxDelay:       2,
			CrashAtRound:   map[int]int{2: 7, 9: 21, 14: 9},
			RecoverAtRound: map[int]int{9: 33},
			Bursts:         []congest.RoundRange{{FromRound: 5, ToRound: 7}},
		}, rel: 2},
	}

	for _, sc := range schedules {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			run := func(parallel bool, workers int) (*fl.Solution, *Report) {
				opts := []Option{WithSeed(31), WithFaults(sc.f),
					WithParallel(parallel), WithShards(workers)}
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
			// Solve certified already; certify again through the public
			// API so the exported path is exercised too.
			if err := Certify(inst, refSol, refRep); err != nil {
				t.Fatal(err)
			}
			wantCrashes := len(sc.f.CrashAtRound)
			if refRep.Net.Crashed != wantCrashes {
				t.Fatalf("crashed %d, schedule has %d", refRep.Net.Crashed, wantCrashes)
			}
			if refRep.Net.Recovered != len(sc.f.RecoverAtRound) {
				t.Fatalf("recovered %d, schedule has %d", refRep.Net.Recovered, len(sc.f.RecoverAtRound))
			}
			if sc.rel > 0 && refRep.Net.Acks == 0 {
				t.Fatal("reliable schedule produced no acks")
			}
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

// TestChaosRepairReassignsCrashedFacilityClients pins the repair-pass
// semantics: crash a facility mid-sweep and every client it had captured
// must end up certified-served by someone else, with the crash recorded in
// the report.
func TestChaosRepairReassignsCrashedFacilityClients(t *testing.T) {
	inst := chaosInstance(t)
	sol, rep, err := Solve(inst, Config{K: 16}, WithSeed(5),
		WithFaults(congest.Faults{CrashAtRound: map[int]int{1: 30, 6: 30}}))
	if err != nil {
		t.Fatal(err)
	}
	if got := len(rep.DeadFacilities); got != 2 {
		t.Fatalf("dead facilities %v, want the two crashed ones", rep.DeadFacilities)
	}
	if sol.Open[1] || sol.Open[6] {
		t.Fatal("crashed facility still open in the masked solution")
	}
	for j, a := range sol.Assign {
		if a == 1 || a == 6 {
			t.Fatalf("client %d still assigned to a crashed facility", j)
		}
	}
	if rep.RepairedClients == 0 && rep.CleanupClients == 0 {
		t.Fatal("crashing two facilities at round 30 rescued nobody, schedule too tame")
	}
}

// TestChaosAllFacilitiesDead drives the unservable path end to end: with
// every facility crashed before the repair beacons, each client halts
// unassigned, the report lists them all as unservable, and the certifier
// accepts the empty solution under those exemptions.
func TestChaosAllFacilitiesDead(t *testing.T) {
	inst, err := fl.NewDense("doomed", []int64{40, 60}, [][]int64{
		{10, 20}, {30, 5}, {7, 7},
	})
	if err != nil {
		t.Fatal(err)
	}
	sol, rep, err := Solve(inst, Config{K: 4}, WithSeed(1),
		WithFaults(congest.Faults{CrashAtRound: map[int]int{0: 2, 1: 2}}))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.DeadFacilities) != 2 || len(rep.UnservableClients) != inst.NC() {
		t.Fatalf("dead=%v unservable=%v, want everyone", rep.DeadFacilities, rep.UnservableClients)
	}
	if rep.Cost != 0 || sol.OpenCount() != 0 {
		t.Fatalf("empty network produced cost %d with %d open", rep.Cost, sol.OpenCount())
	}
	if err := Certify(inst, sol, rep); err != nil {
		t.Fatal(err)
	}
}

// TestChaosSoftCapCertified runs the capacitated variant through a mixed
// schedule and holds it to the same certified, worker-identical contract.
func TestChaosSoftCapCertified(t *testing.T) {
	inst := chaosInstance(t)
	cfg := Config{K: 16, SoftCapacity: 4}
	faults := congest.Faults{
		DropProb:     0.3,
		DupProb:      0.2,
		CrashAtRound: map[int]int{4: 15},
	}
	run := func(parallel bool, workers int) (*fl.CapSolution, *Report) {
		sol, rep, err := SolveSoftCap(inst, cfg, WithSeed(17), WithFaults(faults),
			WithParallel(parallel), WithShards(workers), WithReliableDelivery(2))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return sol, rep
	}
	refSol, refRep := run(false, 0)
	if err := CertifyCap(inst, cfg.SoftCapacity, refSol, refRep); err != nil {
		t.Fatal(err)
	}
	if refRep.Net.Crashed != 1 {
		t.Fatalf("crashed %d, want 1", refRep.Net.Crashed)
	}
	for _, workers := range []int{1, 2, 8} {
		sol, rep := run(true, workers)
		if rep.Net != refRep.Net || rep.Cost != refRep.Cost {
			t.Fatalf("workers=%d diverged: %+v vs %+v", workers, rep, refRep)
		}
		for j := range refSol.Assign {
			if sol.Assign[j] != refSol.Assign[j] {
				t.Fatalf("workers=%d: assignment differs at client %d", workers, j)
			}
		}
	}
}

// TestChaosReliableShimImprovesHeavyLoss is the value proposition of the
// shim in one assertion: under identical heavy loss, retransmissions must
// recover sweep progress — strictly fewer clients should fall through to
// the cleanup/repair fallbacks than without the shim.
func TestChaosReliableShimImprovesHeavyLoss(t *testing.T) {
	inst := chaosInstance(t)
	_, plain, err := Solve(inst, Config{K: 16}, WithSeed(3),
		WithFaults(congest.Faults{DropProb: 0.5}))
	if err != nil {
		t.Fatal(err)
	}
	_, shimmed, err := Solve(inst, Config{K: 16}, WithSeed(3),
		WithFaults(congest.Faults{DropProb: 0.5}), WithReliableDelivery(3))
	if err != nil {
		t.Fatal(err)
	}
	if shimmed.Net.Retransmits == 0 {
		t.Fatal("no retransmissions under 50% loss")
	}
	plainFallback := plain.CleanupClients + plain.RepairedClients
	shimFallback := shimmed.CleanupClients + shimmed.RepairedClients
	if shimFallback >= plainFallback {
		t.Fatalf("shim did not reduce fallback connections: %d vs %d", shimFallback, plainFallback)
	}
}
