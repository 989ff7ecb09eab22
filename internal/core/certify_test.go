package core

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"dfl/internal/congest"
	"dfl/internal/fl"
	"dfl/internal/gen"
)

// certifiedRun produces a clean solved instance for the corruption tests.
func certifiedRun(t *testing.T) (*fl.Instance, *fl.Solution, *Report) {
	t.Helper()
	inst, err := gen.Uniform{M: 10, NC: 40, Density: 0.5, MinDegree: 1}.Generate(13)
	if err != nil {
		t.Fatal(err)
	}
	sol, rep, err := Solve(inst, Config{K: 9}, WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	return inst, sol, rep
}

// TestCertifyRejectsCorruption hand-corrupts a certified solution (and its
// report) one field at a time; every mutilation must be caught, with an
// error naming the offence.
func TestCertifyRejectsCorruption(t *testing.T) {
	inst, sol, rep := certifiedRun(t)
	if err := Certify(inst, sol, rep); err != nil {
		t.Fatalf("clean run failed certification: %v", err)
	}

	// An assigned client, whose facility the cases close or exempt. Any
	// other client would index Open with fl.Unassigned.
	victim := slices.IndexFunc(sol.Assign, func(i int) bool { return i != fl.Unassigned })
	if victim < 0 {
		t.Fatal("clean run assigned no client")
	}
	target := sol.Assign[victim]
	twice := fmt.Sprintf("client %d twice", victim)

	// Each case corrupts through its own subtest's t, so a case that cannot
	// apply to this run skips itself and nothing else.
	cases := []struct {
		name    string
		corrupt func(t *testing.T, s *fl.Solution, r *Report)
		want    string
	}{
		{"unassign_client", func(t *testing.T, s *fl.Solution, r *Report) {
			s.Assign[victim] = fl.Unassigned
		}, "unassigned"},
		{"assign_out_of_range", func(t *testing.T, s *fl.Solution, r *Report) {
			s.Assign[victim] = inst.M() + 3
		}, "invalid facility"},
		{"close_used_facility", func(t *testing.T, s *fl.Solution, r *Report) {
			s.Open[target] = false
		}, "closed facility"},
		{"assign_without_edge", func(t *testing.T, s *fl.Solution, r *Report) {
			for i := 0; i < inst.M(); i++ {
				if _, ok := inst.Cost(i, victim); !ok {
					s.Open[i] = true
					s.Assign[victim] = i
					return
				}
			}
			t.Skip("victim is connected to every facility")
		}, "no edge"},
		{"tamper_cost", func(t *testing.T, s *fl.Solution, r *Report) {
			r.Cost++
		}, "recomputed cost"},
		{"tamper_open_count", func(t *testing.T, s *fl.Solution, r *Report) {
			r.OpenFacilities++
		}, "open facilities"},
		{"assign_exempt_client", func(t *testing.T, s *fl.Solution, r *Report) {
			r.DeadClients = append(r.DeadClients, victim)
			// Keep the cost/count cross-checks quiet so the exemption
			// violation itself is what trips.
			r.Cost = s.Cost(inst)
		}, "exempt client"},
		{"open_dead_facility", func(t *testing.T, s *fl.Solution, r *Report) {
			r.DeadFacilities = append(r.DeadFacilities, target)
		}, "dead facility"},
		{"report_names_bogus_node", func(t *testing.T, s *fl.Solution, r *Report) {
			r.DeadClients = append(r.DeadClients, inst.NC()+7)
		}, "outside"},
		// The duplicate cases would otherwise certify: the victim is
		// unassigned and exempt, the cost matches.
		{"client_in_two_exemption_lists", func(t *testing.T, s *fl.Solution, r *Report) {
			s.Assign[victim] = fl.Unassigned
			r.DeadClients = append(r.DeadClients, victim)
			r.OrphanedClients = append(r.OrphanedClients, victim)
			r.Cost = s.Cost(inst)
		}, twice},
		{"client_twice_in_one_list", func(t *testing.T, s *fl.Solution, r *Report) {
			s.Assign[victim] = fl.Unassigned
			r.DeceivedClients = append(r.DeceivedClients, victim, victim)
			r.Cost = s.Cost(inst)
		}, twice},
		{"facility_in_two_exemption_lists", func(t *testing.T, s *fl.Solution, r *Report) {
			// Close target and exempt every client it served.
			s.Open[target] = false
			for j, i := range s.Assign {
				if i == target {
					s.Assign[j] = fl.Unassigned
					r.DeadClients = append(r.DeadClients, j)
				}
			}
			r.Cost, r.OpenFacilities = s.Cost(inst), s.OpenCount()
			r.DeadFacilities = append(r.DeadFacilities, target)
			r.ByzantineFacilities = append(r.ByzantineFacilities, target)
		}, "twice"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := sol.Clone()
			r := *rep
			r.DeadClients = append([]int(nil), rep.DeadClients...)
			r.DeadFacilities = append([]int(nil), rep.DeadFacilities...)
			tc.corrupt(t, s, &r)
			err := Certify(inst, s, &r)
			if err == nil {
				t.Fatal("corrupted solution certified")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}

	// The Quarantined* lists grant no exemption, so they may overlap the
	// exemption lists without tripping the duplicate check.
	s := sol.Clone()
	s.Assign[victim] = fl.Unassigned
	r := *rep
	r.DeadClients = append(append([]int(nil), rep.DeadClients...), victim)
	r.QuarantinedClients = append(append([]int(nil), rep.QuarantinedClients...), victim)
	r.Cost = s.Cost(inst)
	if err := Certify(inst, s, &r); err != nil {
		t.Fatalf("quarantine overlapping an exemption rejected: %v", err)
	}
}

// TestCertifyCapRejectsCorruption does the same for the capacitated
// certifier, including the capacity-accounting check that has no
// uncapacitated counterpart.
func TestCertifyCapRejectsCorruption(t *testing.T) {
	inst, err := gen.Uniform{M: 8, NC: 48, Density: 0.6, MinDegree: 1}.Generate(29)
	if err != nil {
		t.Fatal(err)
	}
	const cap = 3
	sol, rep, err := SolveSoftCap(inst, Config{K: 9, SoftCapacity: cap}, WithSeed(4))
	if err != nil {
		t.Fatal(err)
	}
	if err := CertifyCap(inst, cap, sol, rep); err != nil {
		t.Fatalf("clean run failed certification: %v", err)
	}
	// Find a facility actually serving someone.
	loaded := -1
	for _, a := range sol.Assign {
		if a != fl.Unassigned {
			loaded = a
			break
		}
	}
	if loaded < 0 {
		t.Fatal("clean run assigned no client")
	}
	cases := []struct {
		name    string
		corrupt func(t *testing.T, s *fl.CapSolution, r *Report)
		want    string
	}{
		{"remove_copy", func(t *testing.T, s *fl.CapSolution, r *Report) {
			// Dropping every copy of a loaded facility must trip the
			// no-open-copy check before any cost cross-check.
			s.Copies[loaded] = 0
		}, "no open copy"},
		{"negative_copies", func(t *testing.T, s *fl.CapSolution, r *Report) {
			// Target an unloaded facility so the per-client no-open-copy
			// check cannot fire first.
			load := s.Load(inst)
			for i := range s.Copies {
				if load[i] == 0 {
					s.Copies[i] = -1
					return
				}
			}
			t.Skip("every facility is loaded")
		}, "negative copies"},
		{"overload", func(t *testing.T, s *fl.CapSolution, r *Report) {
			// Funnel every client into one facility without raising copies.
			for j := range s.Assign {
				if _, ok := inst.Cost(loaded, j); ok {
					s.Assign[j] = loaded
				}
			}
		}, "capacity"},
		{"tamper_cost", func(t *testing.T, s *fl.CapSolution, r *Report) {
			r.Cost--
		}, "recomputed cost"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := sol.Clone()
			r := *rep
			tc.corrupt(t, s, &r)
			err := CertifyCap(inst, cap, s, &r)
			if err == nil {
				t.Fatal("corrupted capacitated solution certified")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestCertifyNilReportMatchesValidate: with no report there are no
// exemptions, so Certify must agree with fl.Validate on both a feasible
// and an infeasible solution.
func TestCertifyNilReportMatchesValidate(t *testing.T) {
	inst, sol, _ := certifiedRun(t)
	if err := Certify(inst, sol, nil); err != nil {
		t.Fatalf("feasible solution rejected without report: %v", err)
	}
	bad := sol.Clone()
	bad.Assign[3] = fl.Unassigned
	if Certify(inst, bad, nil) == nil || fl.Validate(inst, bad) == nil {
		t.Fatal("infeasible solution accepted")
	}
}

// TestSolveBestUnderLossyNetwork is the composition smoke test: option
// plumbing must survive SolveBest's per-run seed override, every run must
// certify, and the returned report must describe the winning run.
func TestSolveBestUnderLossyNetwork(t *testing.T) {
	inst, err := gen.Uniform{M: 12, NC: 50, Density: 0.5, MinDegree: 1}.Generate(77)
	if err != nil {
		t.Fatal(err)
	}
	sol, rep, err := SolveBest(inst, Config{K: 16}, 500, 4, WithFaults(congest.Faults{DropProb: 0.3}))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Net.Dropped == 0 {
		t.Fatal("lossy SolveBest dropped nothing")
	}
	if err := Certify(inst, sol, rep); err != nil {
		t.Fatal(err)
	}
	// The report belongs to the winning seed: re-running it alone must
	// reproduce the same certified cost.
	again, rep2, err := Solve(inst, Config{K: 16}, WithFaults(congest.Faults{DropProb: 0.3}), WithSeed(findWinningSeed(t, inst, 500, 4)))
	if err != nil {
		t.Fatal(err)
	}
	if again.Cost(inst) != rep2.Cost || rep2.Cost != rep.Cost {
		t.Fatalf("winning run not reproducible: %d vs %d vs %d", again.Cost(inst), rep2.Cost, rep.Cost)
	}
}

func findWinningSeed(t *testing.T, inst *fl.Instance, base int64, runs int) int64 {
	t.Helper()
	bestSeed, bestCost := base, int64(-1)
	for s := 0; s < runs; s++ {
		sol, _, err := Solve(inst, Config{K: 16}, WithFaults(congest.Faults{DropProb: 0.3}), WithSeed(base+int64(s)))
		if err != nil {
			t.Fatal(err)
		}
		if c := sol.Cost(inst); bestCost < 0 || c < bestCost {
			bestSeed, bestCost = base+int64(s), c
		}
	}
	return bestSeed
}

// TestSolveRejectsBadFaultConfigs: the satellite contract that Solve (via
// congest.Run) refuses malformed fault schedules instead of running them.
func TestSolveRejectsBadFaultConfigs(t *testing.T) {
	inst, err := gen.Uniform{M: 4, NC: 10}.Generate(1)
	if err != nil {
		t.Fatal(err)
	}
	bad := []congest.Faults{
		{DropProb: 1.5},
		{DropProb: -0.1},
		{CrashAtRound: map[int]int{99: 3}},
		{CrashAtRound: map[int]int{1: -2}},
		{DelayProb: 0.2}, // MaxDelay missing
		{Bursts: []congest.RoundRange{{FromRound: 5, ToRound: 5}}},
	}
	for _, f := range bad {
		if _, _, err := Solve(inst, Config{K: 4}, WithFaults(f)); err == nil {
			t.Fatalf("faults %+v accepted", f)
		}
	}
	if _, _, err := Solve(inst, Config{K: 4}, WithReliableDelivery(-1)); err == nil {
		t.Fatal("negative retry budget accepted")
	}
}
