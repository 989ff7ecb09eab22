package core

import (
	"reflect"
	"strings"
	"sync"
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
// certified solution with every scheduled crash and recovery accounted.
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
			opts := []Option{WithSeed(31), WithFaults(sc.f)}
			if sc.rel > 0 {
				opts = append(opts, WithReliableDelivery(sc.rel))
			}
			sol, rep, err := Solve(inst, cfg, opts...)
			if err != nil {
				t.Fatal(err)
			}
			// Solve certified already; certify again through the public
			// API so the exported path is exercised too.
			if err := Certify(inst, sol, rep); err != nil {
				t.Fatal(err)
			}
			wantCrashes := len(sc.f.CrashAtRound)
			if rep.Net.Crashed != wantCrashes {
				t.Fatalf("crashed %d, schedule has %d", rep.Net.Crashed, wantCrashes)
			}
			if rep.Net.Recovered != len(sc.f.RecoverAtRound) {
				t.Fatalf("recovered %d, schedule has %d", rep.Net.Recovered, len(sc.f.RecoverAtRound))
			}
			if sc.rel > 0 && rep.Net.Acks == 0 {
				t.Fatal("reliable schedule produced no acks")
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
// schedule and holds it to the same certified contract.
func TestChaosSoftCapCertified(t *testing.T) {
	inst := chaosInstance(t)
	cfg := Config{K: 16, SoftCapacity: 4}
	faults := congest.Faults{
		DropProb:     0.3,
		DupProb:      0.2,
		CrashAtRound: map[int]int{4: 15},
	}
	sol, rep, err := SolveSoftCap(inst, cfg, WithSeed(17), WithFaults(faults), WithReliableDelivery(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := CertifyCap(inst, cfg.SoftCapacity, sol, rep); err != nil {
		t.Fatal(err)
	}
	if rep.Net.Crashed != 1 {
		t.Fatalf("crashed %d, want 1", rep.Net.Crashed)
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

// TestChaosLateCrashOrphanPolicy pins the one rule that differs between
// the callers of the shared result pass. In process, a facility crashed
// after the repair beacons leaves its clients committed to it: the
// solution keeps the assignment and the certifier rejects the run (a crash
// after the beacons can break feasibility, DESIGN §10). Assemble instead
// masks the clients of a facility lost with its shard as OrphanedClients
// and certifies. A crash at the beacon round itself is still repaired.
func TestChaosLateCrashOrphanPolicy(t *testing.T) {
	inst, err := gen.Uniform{M: 8, NC: 40, Density: 0.5, MinDegree: 2}.Generate(3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{K: 8}
	const seed = 1
	ref, refRep, err := Solve(inst, cfg, WithSeed(seed))
	if err != nil {
		t.Fatal(err)
	}
	P := refRep.Derived.ProtoRounds
	var served []int // clients of facility 0 in the fault-free run
	for j, i := range ref.Assign {
		if i == 0 {
			served = append(served, j)
		}
	}
	if P != 36 || len(served) == 0 || served[0] != 0 {
		t.Fatalf("P=%d, facility 0 serves %v: want P=36 and client 0 among them", P, served)
	}
	crash := func(at int) Option {
		return WithFaults(congest.Faults{CrashAtRound: map[int]int{0: at}})
	}

	sol, rep, err := Solve(inst, cfg, WithSeed(seed), crash(P+3))
	if err != nil {
		t.Fatalf("crash at the beacon round P+3: %v", err)
	}
	if sol.Open[0] || !reflect.DeepEqual(rep.DeadFacilities, []int{0}) || len(rep.OrphanedClients) != 0 {
		t.Fatalf("crash at P+3: open[0]=%v dead=%v orphaned=%v", sol.Open[0], rep.DeadFacilities, rep.OrphanedClients)
	}
	for _, at := range []int{P + 4, P + 5} {
		_, _, err := Solve(inst, cfg, WithSeed(seed), crash(at))
		if err == nil || !strings.Contains(err.Error(), "client 0 assigned to closed facility 0") {
			t.Errorf("Solve, crash at %d: err = %v, want client 0 left on closed facility 0", at, err)
		}
		_, _, err = SolveSoftCap(inst, Config{K: 8, SoftCapacity: 5}, WithSeed(seed), crash(at))
		if err == nil || !strings.Contains(err.Error(), "dead facility 0 has 1 open copies") {
			t.Errorf("SolveSoftCap, crash at %d: err = %v, want dead facility 0 with an open copy", at, err)
		}
	}

	// The same facility lost with its shard, after a fault-free sharded
	// run: its clients are orphaned, not left assigned.
	n := inst.M() + inst.NC()
	spans := []congest.Span{{Lo: 0, Hi: 1}, {Lo: 1, Hi: n}}
	net, err := congest.NewChanNetwork(n, spans)
	if err != nil {
		t.Fatal(err)
	}
	frags := make([]*Fragment, len(spans))
	errs := make([]error, len(spans))
	var wg sync.WaitGroup
	for si, span := range spans {
		wg.Add(1)
		go func() {
			defer wg.Done()
			frags[si], errs[si] = SolveShard(inst, cfg, span, seed, net.Shard(si))
			if errs[si] != nil {
				net.Abort(errs[si])
			}
		}()
	}
	wg.Wait()
	for si, err := range errs {
		if err != nil {
			t.Fatalf("shard %d: %v", si, err)
		}
	}
	frags[0] = nil
	asol, arep, err := Assemble(inst, cfg, frags)
	if err != nil {
		t.Fatalf("Assemble without facility 0's shard: %v", err)
	}
	if !reflect.DeepEqual(arep.DeadFacilities, []int{0}) || !reflect.DeepEqual(arep.OrphanedClients, served) {
		t.Fatalf("Assemble: dead=%v orphaned=%v, want [0] and %v", arep.DeadFacilities, arep.OrphanedClients, served)
	}
	if err := Certify(inst, asol, arep); err != nil {
		t.Fatal(err)
	}
}
