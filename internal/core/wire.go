// Package core implements the paper's contribution: a distributed
// approximation algorithm for (non-metric) uncapacitated facility location
// in the CONGEST model, with an explicit trade-off between the number of
// communication rounds and the approximation factor.
//
// # Algorithm
//
// The algorithm is a round-quantized version of the sequential greedy star
// algorithm. Star cost-effectiveness values are bucketed into geometric
// classes with base chi = ceil((m*rho)^(1/sqrt(k))), where m is the number
// of facilities, rho the instance's coefficient spread, and k the trade-off
// parameter. The classes are swept from cheapest to most expensive in
// ceil(sqrt(k)) phases; inside a phase, every facility whose current best
// star clears the phase threshold competes for clients in offer/grant/open
// iterations with randomized priorities. After the last phase a cleanup
// step connects any remaining client to its cheapest facility, so the
// returned solution is always feasible. Total rounds: Theta(k); factor
// shape: O(sqrt(k) * chi) — see DESIGN.md for the reconstruction notes and
// EXPERIMENTS.md for measurements.
package core

import (
	"encoding/binary"
	"errors"
	"fmt"

	"dfl/internal/congest"
)

// Wire message kinds. One byte on the wire, followed by kind-specific
// varint fields. Enum starts at 1 so a zero byte is never a valid message.
const (
	kindDone         byte = iota + 1 // client -> facilities: I am connected, drop me
	kindOffer                        // facility -> clients: join my star (carries priority)
	kindGrant                        // client -> facility: I accept your offer
	kindConnect                      // facility -> client: star opened, you are connected
	kindForce                        // client -> facility: cleanup, open for me
	kindRepairBeacon                 // facility -> clients: repair pass, liveness + open status
	kindRepairJoin                   // client -> facility: repair pass, joining your open facility
	kindRepairForce                  // client -> facility: repair pass, open for me (nothing else reachable)
)

// maxOfferBits bounds the encoded OFFER: one kind byte plus three uvarints
// — class < 2^20 (3 bytes), fine <= 64 (1 byte), prio < 2^32 (5 bytes).
// The wire fuzz target (FuzzOfferWire) holds the encoder to this bound on
// arbitrary in-range inputs.
const maxOfferBits = (1 + 3 + 1 + 5) * 8

// Size bounds for every wire kind, registered with the engine so traces
// and the wire fuzz targets can see them.
func init() {
	congest.RegisterPayload(kindDone, "FL-DONE", 8)
	congest.RegisterPayload(kindOffer, "FL-OFFER", maxOfferBits)
	congest.RegisterPayload(kindGrant, "FL-GRANT", 8)
	congest.RegisterPayload(kindConnect, "FL-CONNECT", 8)
	congest.RegisterPayload(kindForce, "FL-FORCE", 8)
	congest.RegisterPayload(kindRepairBeacon, "FL-REPAIR-BEACON", maxBeaconBits)
	congest.RegisterPayload(kindRepairJoin, "FL-REPAIR-JOIN", 8)
	congest.RegisterPayload(kindRepairForce, "FL-REPAIR-FORCE", 8)
}

// encodeOffer renders an OFFER carrying the star's effectiveness class, a
// log2-quantized effectiveness (used only by the FineGrainedTieBreak
// extension), and the facility's per-iteration random priority into buf,
// returning the encoded slice. Class values are O(sqrt(K)), the fine class
// is at most 64, and priorities are 32 bits, so the payload stays within
// the CONGEST budget.
func encodeOffer(buf []byte, class, fine int, prio uint32) []byte {
	buf = buf[:0]
	buf = append(buf, kindOffer)
	buf = binary.AppendUvarint(buf, uint64(class))
	buf = binary.AppendUvarint(buf, uint64(fine))
	buf = binary.AppendUvarint(buf, uint64(prio))
	return buf
}

// errMalformedOffer is decodeOffer's error. It is a fixed value rather
// than a formatted one because a client's offer pass decodes every frame in
// its inbox, and under faults late frames of other kinds are routine there.
var errMalformedOffer = errors.New("core: malformed offer payload")

// decodeOffer parses an OFFER payload.
func decodeOffer(p []byte) (class, fine int, prio uint32, err error) {
	if len(p) < 4 || p[0] != kindOffer {
		return 0, 0, 0, errMalformedOffer
	}
	off := 1
	c, n := binary.Uvarint(p[off:])
	if n <= 0 || c > 1<<20 {
		return 0, 0, 0, errMalformedOffer
	}
	off += n
	fv, n2 := binary.Uvarint(p[off:])
	if n2 <= 0 || fv > 64 {
		return 0, 0, 0, errMalformedOffer
	}
	off += n2
	v, n3 := binary.Uvarint(p[off:])
	if n3 <= 0 || v > 1<<32-1 {
		return 0, 0, 0, errMalformedOffer
	}
	return int(c), int(fv), uint32(v), nil
}

var (
	payloadDone        = []byte{kindDone}
	payloadGrant       = []byte{kindGrant}
	payloadConnect     = []byte{kindConnect}
	payloadForce       = []byte{kindForce}
	payloadRepairJoin  = []byte{kindRepairJoin}
	payloadRepairForce = []byte{kindRepairForce}
)

// maxBeaconBits bounds the REPAIR-BEACON: one kind byte plus one status
// byte (1 = open, 0 = closed).
const maxBeaconBits = 16

// encodeBeacon renders a facility's repair-pass beacon — proof of life
// plus its open/closed status — into buf, returning the encoded slice.
func encodeBeacon(buf []byte, open bool) []byte {
	status := byte(0)
	if open {
		status = 1
	}
	return append(buf[:0], kindRepairBeacon, status)
}

// decodeBeacon parses a REPAIR-BEACON payload.
func decodeBeacon(p []byte) (open, ok bool) {
	if len(p) != 2 || p[0] != kindRepairBeacon || p[1] > 1 {
		return false, false
	}
	return p[1] == 1, true
}

// IsConnect reports whether a wire payload is a CONNECT message; the
// convergence experiment uses it to observe protocol progress from the
// engine's message stream.
func IsConnect(p []byte) bool { return len(p) == 1 && p[0] == kindConnect }

// DescribePayload renders a wire payload for traces and debugging.
func DescribePayload(p []byte) string {
	if len(p) == 0 {
		return "EMPTY"
	}
	switch p[0] {
	case kindDone:
		return "DONE"
	case kindOffer:
		class, fine, prio, err := decodeOffer(p)
		if err != nil {
			return "OFFER(malformed)"
		}
		return fmt.Sprintf("OFFER(class=%d fine=%d prio=%d)", class, fine, prio)
	case kindGrant:
		return "GRANT"
	case kindConnect:
		return "CONNECT"
	case kindForce:
		return "FORCE-OPEN"
	case kindRepairBeacon:
		if open, ok := decodeBeacon(p); ok {
			return fmt.Sprintf("REPAIR-BEACON(open=%v)", open)
		}
		return "REPAIR-BEACON(malformed)"
	case kindRepairJoin:
		return "REPAIR-JOIN"
	case kindRepairForce:
		return "REPAIR-FORCE"
	default:
		return fmt.Sprintf("UNKNOWN(% x)", p)
	}
}
