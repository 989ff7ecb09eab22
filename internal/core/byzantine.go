package core

import "math/rand"

// This file is the attack half of the byzantine model: the protocol-aware
// forger Solve installs into congest.Faults.Forger for a byzantine schedule
// that does not bring its own. The engine calls it for every wire
// transmission of a byzantine node — rewrites of what the node's (still
// honest) state machine staged, and injections on links it left silent —
// independently per recipient, which is what makes equivocation possible.
// The forger is a pure function of its arguments and the fault-stream draws
// it takes, so runs stay byte-identical across the sequential and
// worker-pool runners (invariant I5).
//
// The attack is chosen to be the strongest one the quarantine layer and the
// byzantine masking in Solve are claimed to survive, not a strawman:
// wire-valid frames only (nothing for the link layer or the fail-closed
// decoders to reject), lure offers that win every tie-break, bogus CONNECTs
// in exactly the rounds clients listen for them, and repair beacons that
// equivocate about the facility's open status by recipient parity.
func flForger(m int, d Derived) func(rng *rand.Rand, round, from, to int, orig []byte) []byte {
	protoRounds := d.ProtoRounds
	return func(rng *rand.Rand, round, from, to int, orig []byte) []byte {
		if from < m {
			return forgeFromFacility(rng, round, from, to, orig, protoRounds)
		}
		return forgeFromClient(rng, round, orig, protoRounds)
	}
}

// lureOffer is the lure-offer attack: class 0 (the cheapest, always
// phase-eligible class) with maximum priority wins every honest client's
// pickOffer tie-break, stealing the grant from whatever honest facility
// also offered. The byzantine facility then simply never serves the grant.
func lureOffer() []byte {
	return encodeOffer(nil, 0, 0, ^uint32(0))
}

// forgeFromFacility forges one transmission of a byzantine facility. Two
// attack styles, split by node parity so a multi-facility schedule runs
// both: an even byzantine facility is a pure LURE — it wins grants with
// unbeatable offers and never serves them (its staged CONNECTs are
// suppressed), which is the attack the quarantine layer's unanswered-grant
// evidence condemns; an odd one is a DECEIVER — it wins the same grants and
// serves them with CONNECTs clients cannot distinguish from honest ones,
// which is the attack the byzantine masking and the DeceivedClients
// exemption absorb.
//
// Injection timing follows the sub-round layout: a frame injected during
// round r lands in the recipient's round r+1 inbox, so lure offers go out
// at sub-round 1 (clients pick at 2), the deceiver's bogus CONNECTs at
// sub-round 3 (clients absorb at 0) and in the cleanup answer rounds P+1
// and P+5, and equivocating beacons at P+3 (clients repair at P+4).
func forgeFromFacility(rng *rand.Rand, round, from, to int, orig []byte, protoRounds int) []byte {
	lure := from%2 == 0
	if len(orig) > 0 {
		switch orig[0] {
		case kindRepairBeacon:
			// Equivocate: open to even clients, closed to odd ones — the
			// even half keeps (or re-joins) a facility that is masked out of
			// the solution, the odd half is pushed into needless repair.
			return encodeBeacon(nil, to%2 == 0)
		case kindOffer:
			return lureOffer()
		case kindConnect:
			if lure {
				return nil // never serve a won grant
			}
			return append([]byte(nil), orig...)
		default:
			return append([]byte(nil), orig...)
		}
	}
	switch {
	case round < protoRounds && round%4 == 1:
		return lureOffer()
	case !lure && round < protoRounds && round%4 == 3:
		return []byte{kindConnect}
	case !lure && (round == protoRounds+1 || round == protoRounds+5):
		return []byte{kindConnect}
	case round == protoRounds+3:
		return encodeBeacon(nil, to%2 == 0)
	default:
		if rng.Intn(2) == 0 {
			return nil // stay silent; silence is never evidence
		}
		if lure {
			return lureOffer()
		}
		return []byte{kindConnect}
	}
}

// forgeFromClient forges one transmission of a byzantine client: DONE
// announcements become grants that answer no offer (feeding the facilities'
// stale-grant evidence), silent sub-round-2 links carry more of the same,
// and the cleanup round carries a FORCE that tries to open a facility the
// masked client will never pay for.
func forgeFromClient(rng *rand.Rand, round int, orig []byte, protoRounds int) []byte {
	if len(orig) > 0 {
		if orig[0] == kindDone {
			return []byte{kindGrant}
		}
		return append([]byte(nil), orig...)
	}
	switch {
	case round < protoRounds && round%4 == 2:
		return []byte{kindGrant}
	case round == protoRounds:
		return []byte{kindForce}
	case round == protoRounds+4:
		return []byte{kindRepairJoin}
	default:
		if rng.Intn(2) == 0 {
			return nil
		}
		return []byte{kindGrant}
	}
}
