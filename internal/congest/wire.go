package congest

import (
	"encoding/binary"
	"fmt"
)

// This file is the message-size contract: every wire-message kind that
// crosses the engine is registered here with a hard bound on its encoded
// size, mechanically backing the O(log n)-bit message claim the paper's
// trade-off analysis rests on. The registry (exercised by the wire fuzz
// targets in internal/core and by TestMessageBits) holds the encoders to
// their declared bounds on real data, and the engine's BitLimit rejects
// any send over the run's budget.

// PayloadSpec declares one wire-message kind and its maximum encoded size.
// Kinds share a single namespace across every protocol run on the engine
// so traces and debuggers can identify any payload by its first byte.
type PayloadSpec struct {
	Kind    byte
	Name    string
	MaxBits int
}

// payloadRegistry is written only by RegisterPayload calls made from the
// payload-defining packages' init functions; after package initialization
// it is read-only, so reads cannot observe nondeterministic state.
//
//flvet:frozen written only during package init via RegisterPayload
var payloadRegistry = map[byte]PayloadSpec{}

// RegisterPayload records a wire kind with its size bound. Registration
// happens in package init blocks; colliding kinds or non-positive bounds
// are programming errors and panic immediately.
func RegisterPayload(kind byte, name string, maxBits int) {
	if name == "" || maxBits <= 0 {
		panic(fmt.Sprintf("congest: invalid payload registration kind=%#x name=%q maxBits=%d", kind, name, maxBits))
	}
	if prev, ok := payloadRegistry[kind]; ok {
		panic(fmt.Sprintf("congest: payload kind %#x registered twice (%s and %s)", kind, prev.Name, name))
	}
	payloadRegistry[kind] = PayloadSpec{Kind: kind, Name: name, MaxBits: maxBits}
}

// PayloadMaxBits returns the registered size bound for a wire kind.
func PayloadMaxBits(kind byte) (int, bool) {
	s, ok := payloadRegistry[kind]
	return s.MaxBits, ok
}

// ValidatePayload is the engine's fail-closed wire check: a payload is
// structurally valid only if it is non-empty, its kind byte is registered,
// and its encoded size respects the kind's registered bound. It never
// panics on arbitrary bytes. The reliable-delivery shim applies it as a
// link-layer framing check (an invalid frame is discarded unacknowledged,
// so a retransmission of the uncorrupted original can still land); protocol
// decoders remain the last line of defence for content-level corruption
// that happens to keep a valid frame shape.
func ValidatePayload(p []byte) (PayloadSpec, error) {
	if len(p) == 0 {
		return PayloadSpec{}, fmt.Errorf("congest: empty payload")
	}
	spec, ok := payloadRegistry[p[0]]
	if !ok {
		return PayloadSpec{}, fmt.Errorf("congest: payload kind %#x is not registered", p[0])
	}
	if len(p)*8 > spec.MaxBits {
		return PayloadSpec{}, fmt.Errorf("congest: %s payload of %d bits exceeds registered bound %d", spec.Name, len(p)*8, spec.MaxBits)
	}
	return spec, nil
}

// MaxKindVarintBits bounds EncodeKindUvarint's output: one kind byte plus
// one 64-bit uvarint of at most 10 bytes.
const MaxKindVarintBits = 88

// EncodeKindUvarint renders a kind byte followed by one unsigned varint
// into buf's storage; the reliable-delivery shim frames its acks with it.
//
//flvet:encoder maxbits=88
func EncodeKindUvarint(buf []byte, kind byte, v uint64) []byte {
	buf = append(buf[:0], kind)
	return binary.AppendUvarint(buf, v)
}

// kindAck is the reliable-delivery shim's link-layer acknowledgement: one
// kind byte plus the acknowledged sequence number as a uvarint. Acks never
// travel through Env.Send — they are engine-level control traffic,
// accounted in Stats.Acks/AckBits — but the kind is registered so traces
// can identify it and TestMessageBits can hold it to its bound.
const kindAck = '!'

func init() {
	// The engine's own link-layer kind: one kind byte plus one uvarint.
	RegisterPayload(kindAck, "LINK-ACK", MaxKindVarintBits)
}
