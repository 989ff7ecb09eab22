package core

import (
	"testing"

	"dfl/internal/congest"
)

// TestPayloadRegistration pins the message-size registry: every core wire
// kind is registered with the engine, the
// single-byte payload vars fit their declared budgets, and DescribePayload
// still recognizes each kind.
func TestPayloadRegistration(t *testing.T) {
	kinds := map[byte]string{
		kindDone:         "FL-DONE",
		kindOffer:        "FL-OFFER",
		kindGrant:        "FL-GRANT",
		kindConnect:      "FL-CONNECT",
		kindForce:        "FL-FORCE",
		kindRepairBeacon: "FL-REPAIR-BEACON",
		kindRepairJoin:   "FL-REPAIR-JOIN",
		kindRepairForce:  "FL-REPAIR-FORCE",
	}
	for kind, name := range kinds {
		mb, ok := congest.PayloadMaxBits(kind)
		if !ok {
			t.Errorf("kind %s (%#x) not registered", name, kind)
			continue
		}
		if kind != kindOffer && kind != kindRepairBeacon && mb != 8 {
			t.Errorf("kind %s registered at %d bits, want 8", name, mb)
		}
	}
	for _, p := range [][]byte{payloadDone, payloadGrant, payloadConnect, payloadForce, payloadRepairJoin, payloadRepairForce} {
		mb, ok := congest.PayloadMaxBits(p[0])
		if !ok || len(p)*8 > mb {
			t.Errorf("payload % x exceeds registered bound (%d bits, ok=%v)", p, mb, ok)
		}
	}
	if mb, _ := congest.PayloadMaxBits(kindOffer); mb != maxOfferBits {
		t.Errorf("OFFER registered at %d bits, want %d", mb, maxOfferBits)
	}
	if mb, _ := congest.PayloadMaxBits(kindRepairBeacon); mb != maxBeaconBits {
		t.Errorf("REPAIR-BEACON registered at %d bits, want %d", mb, maxBeaconBits)
	}
	for _, open := range []bool{false, true} {
		p := encodeBeacon(nil, open)
		if len(p)*8 > maxBeaconBits {
			t.Errorf("beacon(open=%v) encodes to %d bits, bound %d", open, len(p)*8, maxBeaconBits)
		}
		got, ok := decodeBeacon(p)
		if !ok || got != open {
			t.Errorf("beacon(open=%v) round trip failed: (%v,%v)", open, got, ok)
		}
	}
	if _, ok := decodeBeacon([]byte{kindRepairBeacon, 2}); ok {
		t.Error("malformed beacon status accepted")
	}
}

// FuzzOfferWire holds encodeOffer to the maxBits its payload registry
// entry declares (FL-OFFER, maxOfferBits; no static check proves it): for
// every in-range input the encoding round-trips exactly and stays within
// maxOfferBits.
func FuzzOfferWire(f *testing.F) {
	f.Add(0, 0, uint32(0))
	f.Add(1<<20, 64, ^uint32(0))
	f.Add(17, 3, uint32(0xdeadbeef))
	f.Fuzz(func(t *testing.T, class, fine int, prio uint32) {
		// Clamp to the protocol's documented ranges (decodeOffer rejects
		// anything beyond them as malformed).
		if class < 0 {
			class = -class
		}
		class %= 1<<20 + 1
		if fine < 0 {
			fine = -fine
		}
		fine %= 65
		p := encodeOffer(nil, class, fine, prio)
		if len(p)*8 > maxOfferBits {
			t.Fatalf("offer(class=%d fine=%d prio=%d) encodes to %d bits, registered bound %d", class, fine, prio, len(p)*8, maxOfferBits)
		}
		c2, f2, p2, err := decodeOffer(p)
		if err != nil {
			t.Fatalf("own encoding rejected: %v", err)
		}
		if c2 != class || f2 != fine || p2 != prio {
			t.Fatalf("round trip (%d,%d,%d) -> (%d,%d,%d)", class, fine, prio, c2, f2, p2)
		}
	})
}
