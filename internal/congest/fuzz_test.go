package congest

import (
	"math/rand"
	"testing"
)

// The engine's byzantine model hands decoders arbitrary attacker-chosen
// bytes, so every wire-facing parse path must be fail-closed: malformed
// input is an error (or a rejected frame), never a panic and never a frame
// that claims an out-of-registry kind. These fuzz targets are the contract;
// the CI smoke job runs each for a few seconds on top of the seeded corpus.

// FuzzValidatePayload drives the link-layer frame check with raw bytes: it
// must never panic, and whenever it accepts a frame the kind must resolve
// in the payload registry with the frame inside the registered bit bound.
func FuzzValidatePayload(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00})
	f.Add([]byte{kindAck})
	f.Add([]byte{floodValue, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{stLeader, 0x01, 0x02})
	f.Add([]byte("garbage"))
	f.Fuzz(func(t *testing.T, p []byte) {
		spec, err := ValidatePayload(p)
		if err != nil {
			return
		}
		maxBits, ok := PayloadMaxBits(spec.Kind)
		if !ok {
			t.Fatalf("accepted frame with unregistered kind %q", spec.Kind)
		}
		if len(p)*8 > maxBits {
			t.Fatalf("accepted %d-bit frame over kind %q bound %d", len(p)*8, spec.Kind, maxBits)
		}
	})
}

// FuzzDecodeKindVarint round-trips the varint framing under mutation: raw
// bytes never panic, and any accepted decode re-encodes to an equivalent
// frame that decodes to the same value.
func FuzzDecodeKindVarint(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{floodValue})
	f.Add(EncodeKindVarint(nil, floodValue, 0))
	f.Add(EncodeKindVarint(nil, floodValue, -1))
	f.Add(EncodeKindVarint(nil, stSum, 1<<40))
	f.Add([]byte{floodValue, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01})
	f.Fuzz(func(t *testing.T, p []byte) {
		kind, v, ok := DecodeKindVarint(p)
		if !ok {
			return
		}
		kind2, v2, ok2 := DecodeKindVarint(EncodeKindVarint(nil, kind, v))
		if !ok2 || kind2 != kind || v2 != v {
			t.Fatalf("round-trip of accepted frame diverged: kind %q v %d -> kind %q v %d ok %v",
				kind, v, kind2, v2, ok2)
		}
	})
}

// FuzzDecodeKindUvarint mirrors FuzzDecodeKindVarint for the unsigned
// framing.
func FuzzDecodeKindUvarint(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{stTotal})
	f.Add(EncodeKindUvarint(nil, stTotal, 0))
	f.Add(EncodeKindUvarint(nil, stTotal, 1<<60))
	f.Fuzz(func(t *testing.T, p []byte) {
		kind, v, ok := DecodeKindUvarint(p)
		if !ok {
			return
		}
		kind2, v2, ok2 := DecodeKindUvarint(EncodeKindUvarint(nil, kind, v))
		if !ok2 || kind2 != kind || v2 != v {
			t.Fatalf("round-trip of accepted frame diverged: kind %q v %d -> kind %q v %d ok %v",
				kind, v, kind2, v2, ok2)
		}
	})
}

// FuzzCorruptPayload pins the corruption fault itself: whatever bytes the
// schedule mutates, the mutation must stay in bounds (no panic), must never
// touch the input slice, and must never return nil (a corrupted frame is
// still a frame — dropping is a different fault).
func FuzzCorruptPayload(f *testing.F) {
	f.Add(int64(1), []byte{})
	f.Add(int64(2), []byte{0x00})
	f.Add(int64(3), []byte("offer"))
	f.Fuzz(func(t *testing.T, seed int64, p []byte) {
		orig := append([]byte(nil), p...)
		rng := rand.New(rand.NewSource(seed))
		got := corruptPayload(rng, p)
		if got == nil {
			t.Fatal("corruptPayload returned nil")
		}
		if len(got) > len(p) && len(p) > 0 {
			t.Fatalf("corruption grew payload from %d to %d bytes", len(p), len(got))
		}
		for i := range p {
			if p[i] != orig[i] {
				t.Fatal("corruptPayload mutated the caller's slice")
			}
		}
	})
}
