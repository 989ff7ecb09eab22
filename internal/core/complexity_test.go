package core

import (
	"testing"

	"dfl/internal/congest"
	"dfl/internal/gen"
)

// TestMessageComplexityBound verifies the protocol's message bound: per
// iteration each edge carries at most a constant number of messages (one
// OFFER, one GRANT, one CONNECT, one DONE in each direction at most), so
// total messages <= c * E * iterations with c small. The cleanup and
// repair tail each fit in one extra "iteration": cleanup sends at most a
// FORCE and a CONNECT per edge, repair at most a beacon per edge plus a
// JOIN/FORCE and a CONNECT per client.
func TestMessageComplexityBound(t *testing.T) {
	for _, k := range []int{1, 9, 36} {
		inst, err := gen.Uniform{M: 20, NC: 100}.Generate(2)
		if err != nil {
			t.Fatal(err)
		}
		_, rep, err := Solve(inst, Config{K: k}, WithSeed(3))
		if err != nil {
			t.Fatal(err)
		}
		d := rep.Derived
		iterations := int64(d.Phases*d.ItersPerPhase) + 2 // +2 for cleanup and repair
		bound := 4 * int64(inst.EdgeCount()) * iterations
		if rep.Net.Messages > bound {
			t.Fatalf("K=%d: %d messages exceed 4*E*iters = %d", k, rep.Net.Messages, bound)
		}
	}
}

// TestDoneSentExactlyOncePerClient observes the message stream and checks
// the DONE discipline: every connected client broadcasts DONE at most once
// and to at most degree-1 facilities.
func TestDoneSentExactlyOncePerClient(t *testing.T) {
	inst, err := gen.Uniform{M: 12, NC: 60}.Generate(5)
	if err != nil {
		t.Fatal(err)
	}
	doneBySender := make(map[int]int)
	_, _, err = Solve(inst, Config{K: 16}, WithSeed(1),
		WithObserver(func(round int, delivered []congest.Message) {
			for _, msg := range delivered {
				if len(msg.Payload) == 1 && msg.Payload[0] == kindDone {
					doneBySender[int(msg.From)]++
				}
			}
		}))
	if err != nil {
		t.Fatal(err)
	}
	m := inst.M()
	for sender, count := range doneBySender {
		j := sender - m
		if j < 0 || j >= inst.NC() {
			t.Fatalf("DONE from non-client node %d", sender)
		}
		deg := len(inst.ClientEdges(j))
		if count > deg-1 && !(deg == 1 && count == 0) {
			// A client sends DONE to every neighbour except its facility.
			if count > deg {
				t.Fatalf("client %d sent %d DONEs with degree %d", j, count, deg)
			}
		}
	}
}

// TestGrantImpliesOffer checks the protocol discipline end to end: every
// GRANT is preceded (one round earlier) by an OFFER on the same edge in
// the opposite direction.
func TestGrantImpliesOffer(t *testing.T) {
	inst, err := gen.Uniform{M: 10, NC: 50}.Generate(7)
	if err != nil {
		t.Fatal(err)
	}
	type edge struct{ a, b int32 }
	offersAt := make(map[int]map[edge]bool) // round -> facility->client offers
	violation := ""
	_, _, err = Solve(inst, Config{K: 9}, WithSeed(2),
		WithObserver(func(round int, delivered []congest.Message) {
			for _, msg := range delivered {
				if len(msg.Payload) >= 1 && msg.Payload[0] == kindOffer {
					if offersAt[round] == nil {
						offersAt[round] = make(map[edge]bool)
					}
					offersAt[round][edge{msg.From, msg.To}] = true
				}
				if len(msg.Payload) == 1 && msg.Payload[0] == kindGrant {
					// GRANT sent at round r responds to OFFER sent at r-1.
					if !offersAt[round-1][edge{msg.To, msg.From}] {
						violation = "grant without matching offer"
					}
				}
			}
		}))
	if err != nil {
		t.Fatal(err)
	}
	if violation != "" {
		t.Fatal(violation)
	}
}

// TestMessagesPerEdgePerRoundAtMostOne re-verifies the CONGEST invariant
// at the protocol level (the engine enforces it, but the test documents
// that the protocol never even attempts to violate it: an engine error
// would surface as a Solve error).
func TestMessagesPerEdgePerRoundAtMostOne(t *testing.T) {
	inst, err := gen.Star{M: 6, NC: 30}.Generate(3)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Solve(inst, Config{K: 25}, WithSeed(9)); err != nil {
		t.Fatal(err)
	}
}
