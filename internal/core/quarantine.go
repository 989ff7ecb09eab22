package core

import (
	"sort"

	"dfl/internal/congest"
)

// This file is the sender-quarantine layer: the protocol's defence against
// corrupted and byzantine senders. Every node tracks per-neighbour
// protocol-consistency invariants — an offer's class must fit the phase, a
// grant must answer a live offer, message kinds are direction-fixed — and
// quarantines violators: their traffic is dropped before the state machine
// sees it, and the repair tail treats them like dead nodes. The layer is
// armed only when the run's fault schedule includes corruption or byzantine
// nodes (or the caller forces it with WithQuarantine): an honest run
// executes byte-identically with the layer compiled in but dormant, which
// the stats-accounting regression test verifies.
//
// The evidence rules are deliberately conservative. Wire corruption mostly
// produces malformed frames, which are rejected (counted in the engine's
// Stats.Rejected) but are NOT held against the sender — the sender did not
// write those bytes. Only well-formed-but-protocol-impossible behaviour
// accumulates evidence: hard violations (a kind no honest peer of that role
// ever sends, an offer class no honest facility could hold at that phase)
// quarantine immediately, soft anomalies that faults can also produce
// (unanswered grants, stale grants) quarantine after a threshold. A
// quarantined honest node costs solution quality, never feasibility: a
// client that quarantines its last facility ends unassigned and is exempted
// by the certifier exactly like an unservable one.

// sentry is one node's quarantine state. The zero value is not used; nodes
// get a sentry only when the run arms the layer, so the honest path carries
// no overhead.
type sentry struct {
	// quarantined holds condemned neighbour node ids.
	quarantined map[int]bool
	// suspicion accumulates soft evidence per neighbour node id.
	suspicion map[int]int
	// buf is the filtered-inbox scratch, reused across rounds.
	buf []congest.Message
}

func newSentry() *sentry {
	return &sentry{
		quarantined: make(map[int]bool),
		suspicion:   make(map[int]int),
	}
}

// isQuarantined reports whether a neighbour has been condemned.
func (s *sentry) isQuarantined(node int) bool { return s.quarantined[node] }

// condemn quarantines a neighbour immediately.
func (s *sentry) condemn(node int) { s.quarantined[node] = true }

// suspect adds soft evidence against a neighbour and condemns it once the
// evidence reaches the threshold.
func (s *sentry) suspect(node, weight, threshold int) {
	s.suspicion[node] += weight
	if s.suspicion[node] >= threshold {
		s.condemn(node)
	}
}

// ids returns the condemned neighbours in ascending order (the map is never
// ranged over elsewhere, so quarantine state stays deterministic).
func (s *sentry) ids() []int {
	if len(s.quarantined) == 0 {
		return nil
	}
	out := make([]int, 0, len(s.quarantined))
	for id := range s.quarantined { //flvet:ordered sorted immediately below
		out = append(out, id)
	}
	sort.Ints(out)
	return out
}

// screenFacility validates and filters a facility's inbox: malformed frames
// are rejected fail-closed, frames whose kind only facilities send are hard
// evidence against the sender (message kinds are direction-fixed, so no
// honest client ever produces one), and traffic from quarantined senders is
// dropped. Returns the surviving messages in their original order.
func (f *facilityNode) screenFacility(inbox []congest.Message) []congest.Message {
	s := f.sentry
	kept := s.buf[:0]
	for _, msg := range inbox {
		if s.quarantined[int(msg.From)] {
			continue
		}
		if len(msg.Payload) == 0 {
			f.env.Reject()
			continue
		}
		switch msg.Payload[0] {
		case kindDone, kindGrant, kindForce, kindRepairJoin, kindRepairForce:
			if len(msg.Payload) != 1 {
				f.env.Reject()
				continue
			}
		case kindOffer, kindConnect, kindRepairBeacon:
			// Facility-only kinds arriving at a facility: no honest client
			// sends these, and corruption cannot fabricate them except by
			// forging the kind byte outright. Hard evidence.
			f.env.Reject()
			s.condemn(int(msg.From))
			continue
		default:
			f.env.Reject()
			continue
		}
		kept = append(kept, msg)
	}
	s.buf = kept
	return kept
}

// screenClient validates and filters a client's inbox. Beyond the
// direction-fixed kind check (mirroring screenFacility), offers are decoded
// and their class is held against the phase schedule: an honest facility's
// class is always within [0, Phases) and never above the phase current at
// the send round — and since phases only advance, never above the phase at
// the arrival round either, even for delay-fault stragglers. A violating
// offer is hard evidence of forgery.
func (c *clientNode) screenClient(r int, inbox []congest.Message) []congest.Message {
	s := c.sentry
	kept := s.buf[:0]
	for _, msg := range inbox {
		if s.quarantined[int(msg.From)] {
			continue
		}
		if len(msg.Payload) == 0 {
			c.env.Reject()
			continue
		}
		switch msg.Payload[0] {
		case kindConnect:
			if len(msg.Payload) != 1 {
				c.env.Reject()
				continue
			}
		case kindOffer:
			class, _, _, err := decodeOffer(msg.Payload)
			if err != nil {
				c.env.Reject()
				continue
			}
			if class > c.phaseAt(r) {
				c.env.Reject()
				s.condemn(int(msg.From))
				continue
			}
		case kindRepairBeacon:
			if _, ok := decodeBeacon(msg.Payload); !ok {
				c.env.Reject()
				continue
			}
		case kindDone, kindGrant, kindForce, kindRepairJoin, kindRepairForce:
			// Client-only kinds arriving at a client: hard evidence.
			c.env.Reject()
			s.condemn(int(msg.From))
			continue
		default:
			c.env.Reject()
			continue
		}
		kept = append(kept, msg)
	}
	s.buf = kept
	return kept
}

// phaseAt is the threshold phase in force at round r, saturating at the
// last phase through the cleanup tail (mirrors facilityNode.phaseOf).
func (c *clientNode) phaseAt(r int) int {
	p := (r / 4) / c.d.ItersPerPhase
	if p >= c.d.Phases {
		p = c.d.Phases - 1
	}
	return p
}
