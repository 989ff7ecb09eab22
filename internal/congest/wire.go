package congest

import (
	"encoding/binary"
	"fmt"
	"sort"
)

// This file is the runtime half of the congestmsg contract (see
// internal/analysis): every wire-message kind that crosses the engine is
// registered here with a hard bound on its encoded size, mechanically
// backing the O(log n)-bit message claim the paper's trade-off analysis
// rests on. The static analyzer guarantees payloads come only from
// annotated encoders; the registry (exercised by the wire fuzz targets in
// internal/fl and internal/core) holds those encoders to their declared
// bounds on real data.

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

// PayloadSpecs returns every registered payload kind, sorted by kind byte.
func PayloadSpecs() []PayloadSpec {
	specs := make([]PayloadSpec, 0, len(payloadRegistry))
	for _, s := range payloadRegistry { //flvet:ordered sorted immediately below
		specs = append(specs, s)
	}
	sort.Slice(specs, func(i, j int) bool { return specs[i].Kind < specs[j].Kind })
	return specs
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

// MaxKindVarintBits bounds the generic kind+varint encoders below: one
// kind byte plus one 64-bit (u)varint of at most 10 bytes.
const MaxKindVarintBits = 88

// EncodeKindVarint renders the engine's standard small payload — a kind
// byte followed by one signed varint — into buf's storage.
//
//flvet:encoder maxbits=88
func EncodeKindVarint(buf []byte, kind byte, v int64) []byte {
	buf = append(buf[:0], kind)
	return binary.AppendVarint(buf, v)
}

// DecodeKindVarint parses an EncodeKindVarint payload. On short or
// malformed input it still returns the kind byte (if present) so callers
// can dispatch value-free kinds.
func DecodeKindVarint(p []byte) (kind byte, v int64, ok bool) {
	if len(p) == 0 {
		return 0, 0, false
	}
	v, n := binary.Varint(p[1:])
	if n <= 0 {
		return p[0], 0, false
	}
	return p[0], v, true
}

// EncodeKindUvarint is EncodeKindVarint for unsigned values.
//
//flvet:encoder maxbits=88
func EncodeKindUvarint(buf []byte, kind byte, v uint64) []byte {
	buf = append(buf[:0], kind)
	return binary.AppendUvarint(buf, v)
}

// DecodeKindUvarint parses an EncodeKindUvarint payload.
func DecodeKindUvarint(p []byte) (kind byte, v uint64, ok bool) {
	if len(p) == 0 {
		return 0, 0, false
	}
	v, n := binary.Uvarint(p[1:])
	if n <= 0 {
		return p[0], 0, false
	}
	return p[0], v, true
}

// kindAck is the reliable-delivery shim's link-layer acknowledgement: one
// kind byte plus the acknowledged sequence number as a uvarint. Acks never
// travel through Env.Send — they are engine-level control traffic,
// accounted in Stats.Acks/AckBits — but the kind is registered so traces
// and the congestmsg contract can identify and bound it.
const kindAck = '!'

func init() {
	// The engine's own protocol kinds. Value payloads are one kind byte
	// plus one varint.
	RegisterPayload(kindAck, "LINK-ACK", MaxKindVarintBits)
	RegisterPayload(floodValue, "FLOOD-MIN", MaxKindVarintBits)
	RegisterPayload(stLeader, "ST-LEADER", MaxKindVarintBits)
	RegisterPayload(stLevel, "ST-LEVEL", MaxKindVarintBits)
	RegisterPayload(stAdopt, "ST-ADOPT", MaxKindVarintBits)
	RegisterPayload(stSum, "ST-SUM", MaxKindVarintBits)
	RegisterPayload(stTotal, "ST-TOTAL", MaxKindVarintBits)
}
