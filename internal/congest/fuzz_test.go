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
	f.Add([]byte{kindAck, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{kindAck, 0x01, 0x02})
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
