package core

import (
	"math/rand"
	"reflect"
	"testing"

	"dfl/internal/congest"
	"dfl/internal/fl"
)

// The byzantine model delivers attacker-chosen bytes straight into the
// protocol's decoders, so each one must be fail-closed: malformed input is
// an error, never a panic and never a value outside the encoder's range.
// These targets are the contract; the CI smoke job fuzzes each for a few
// seconds on top of the seeded corpus.

// FuzzDecodeOffer drives the OFFER parser with raw bytes: no panic, and
// every accepted decode must round-trip through encodeOffer and stay inside
// the advertised wire bound.
func FuzzDecodeOffer(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{kindOffer})
	f.Add(encodeOffer(nil, 0, 0, 0))
	f.Add(encodeOffer(nil, 5, 64, ^uint32(0)))
	f.Add([]byte{kindOffer, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Add([]byte("garbage"))
	f.Fuzz(func(t *testing.T, p []byte) {
		class, fine, prio, err := decodeOffer(p)
		if err != nil {
			return
		}
		if class < 0 || class > 1<<20 || fine < 0 || fine > 64 {
			t.Fatalf("accepted offer outside encoder range: class=%d fine=%d", class, fine)
		}
		enc := encodeOffer(nil, class, fine, prio)
		if len(enc)*8 > maxOfferBits {
			t.Fatalf("accepted offer re-encodes to %d bits, over bound %d", len(enc)*8, maxOfferBits)
		}
		c2, f2, p2, err2 := decodeOffer(enc)
		if err2 != nil || c2 != class || f2 != fine || p2 != prio {
			t.Fatalf("round-trip diverged: (%d,%d,%d) -> (%d,%d,%d,%v)",
				class, fine, prio, c2, f2, p2, err2)
		}
	})
}

// FuzzDecodeBeacon drives the REPAIR-BEACON parser with raw bytes: no
// panic, and every accepted decode round-trips through encodeBeacon.
func FuzzDecodeBeacon(f *testing.F) {
	f.Add([]byte{})
	f.Add(encodeBeacon(nil, true))
	f.Add(encodeBeacon(nil, false))
	f.Add([]byte{kindRepairBeacon, 2})
	f.Add([]byte{kindRepairBeacon, 1, 0})
	f.Fuzz(func(t *testing.T, p []byte) {
		open, ok := decodeBeacon(p)
		if !ok {
			return
		}
		if len(p) != 2 {
			t.Fatalf("accepted %d-byte beacon", len(p))
		}
		open2, ok2 := decodeBeacon(encodeBeacon(nil, open))
		if !ok2 || open2 != open {
			t.Fatalf("round-trip diverged: open=%v -> open=%v ok=%v", open, open2, ok2)
		}
	})
}

// FuzzCheckpointDecode drives the checkpoint decoder with raw bytes: no
// panic, no over-allocation on lying length fields, and every accepted
// decode must satisfy the documented range invariants and survive an
// encode/decode round trip unchanged.
func FuzzCheckpointDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{ckptVersion})
	f.Add((&Checkpoint{Span: congest.Span{Lo: 0, Hi: 2}, M: 3, NC: 2, K: 4, Seed: 7}).Encode(nil))
	f.Add((&Checkpoint{Span: congest.Span{Lo: 1, Hi: 3}, M: 3, NC: 2, K: 4, Seed: -1,
		Log: [][]congest.Message{{}, {}}}).Encode(nil))
	f.Add([]byte{ckptVersion, 0, 2, 3, 2, 4, 14, 0xff, 0xff, 0xff, 0xff})
	f.Add([]byte("garbage"))
	f.Fuzz(func(t *testing.T, p []byte) {
		ck, err := DecodeCheckpoint(p)
		if err != nil {
			return
		}
		if ck.Span.Lo >= ck.Span.Hi || ck.Span.Hi > ck.M+ck.NC {
			t.Fatalf("accepted checkpoint with invalid span %+v", ck)
		}
		for r, msgs := range ck.Log {
			for _, msg := range msgs {
				if ck.Span.Contains(int(msg.From)) || int(msg.From) >= ck.M+ck.NC || !ck.Span.Contains(int(msg.To)) {
					t.Fatalf("accepted checkpoint with out-of-contract message %d->%d in round %d", msg.From, msg.To, r)
				}
				if _, err := congest.ValidatePayload(msg.Payload); err != nil {
					t.Fatalf("accepted checkpoint with invalid payload in round %d: %v", r, err)
				}
			}
		}
		enc := ck.Encode(nil)
		ck2, err := DecodeCheckpoint(enc)
		if err != nil {
			t.Fatalf("re-encode of accepted checkpoint rejected: %v", err)
		}
		if !reflect.DeepEqual(ck, ck2) {
			t.Fatalf("round-trip diverged:\n got  %+v\n want %+v", ck2, ck)
		}
	})
}

// FuzzByzantineWire drives attacker-chosen bytes through the whole receive
// path — link-layer framing check, quarantine screens (including the bare
// one-byte repair kinds FORCE, REPAIR-JOIN and REPAIR-FORCE, whose only
// parse is the screens' length check), and the protocol decoders — by
// running a small instance with one byzantine facility and one byzantine
// client whose every transmission is the fuzz payload. Whatever the bytes,
// Solve must neither panic nor fail to certify the honest remainder.
func FuzzByzantineWire(f *testing.F) {
	f.Add([]byte{}, int64(1))
	f.Add([]byte{kindDone}, int64(2))
	f.Add([]byte{kindGrant}, int64(3))
	f.Add([]byte{kindConnect}, int64(4))
	f.Add([]byte{kindForce}, int64(5))
	f.Add([]byte{kindRepairJoin}, int64(6))
	f.Add([]byte{kindRepairForce}, int64(7))
	f.Add(encodeOffer(nil, 0, 0, ^uint32(0)), int64(8))
	f.Add(encodeBeacon(nil, true), int64(9))
	f.Add([]byte("garbage bytes"), int64(10))
	f.Fuzz(func(t *testing.T, p []byte, seed int64) {
		inst, err := fl.NewDense("fuzz", []int64{5, 9}, [][]int64{
			{2, 3}, {4, 1}, {6, 6},
		})
		if err != nil {
			t.Fatal(err)
		}
		// Facility 0 is node 0, client 0 is node 2; both byzantine from the
		// start, replaying the fuzz payload on every link every round.
		faults := congest.Faults{
			ByzantineFromRound: map[int]int{0: 0, 2: 0},
			Forger: func(rng *rand.Rand, round, from, to int, orig []byte) []byte {
				if len(p) == 0 {
					return nil
				}
				return append([]byte(nil), p...)
			},
		}
		sol, rep, err := Solve(inst, Config{K: 1}, WithSeed(seed), WithFaults(faults))
		if err != nil {
			t.Fatalf("payload % x broke the protocol: %v", p, err)
		}
		if err := Certify(inst, sol, rep); err != nil {
			t.Fatalf("payload % x broke certification: %v", p, err)
		}
	})
}
