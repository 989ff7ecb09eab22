package fl

import (
	"bytes"
	"strings"
	"testing"

	"dfl/internal/congest"
)

// FuzzRead checks that the instance parser never panics and that anything
// it accepts survives a write/read round trip unchanged.
func FuzzRead(f *testing.F) {
	f.Add("ufl 2 2 demo\nf 0 7\nf 1 3\ne 0 0 5\ne 0 1 6\ne 1 1 1\n")
	f.Add("ufl 1 0\n")
	f.Add("# comment only\n")
	f.Add("ufl 1 1\ne 0 0 0\n")
	f.Add("ufl 3 3 x\nf 0 1\ne 0 0 1\ne 1 1 2\ne 2 2 3\n")
	f.Add(strings.Repeat("ufl 1 1\n", 3))
	f.Add("ufl 9999999999 1\n")
	f.Add("ufl 2 2\ne 0 0 -5\n")
	f.Fuzz(func(t *testing.T, input string) {
		inst, err := Read(strings.NewReader(input))
		if err != nil {
			return // rejection is fine; panics are not
		}
		var buf bytes.Buffer
		if err := Write(&buf, inst); err != nil {
			t.Fatalf("accepted instance failed to serialize: %v", err)
		}
		back, err := Read(&buf)
		if err != nil {
			t.Fatalf("own output failed to parse: %v", err)
		}
		if back.M() != inst.M() || back.NC() != inst.NC() || back.EdgeCount() != inst.EdgeCount() {
			t.Fatalf("round trip changed shape: (%d,%d,%d) -> (%d,%d,%d)",
				inst.M(), inst.NC(), inst.EdgeCount(), back.M(), back.NC(), back.EdgeCount())
		}
	})
}

// FuzzRatioCmp checks the exact comparator's antisymmetry and totality on
// arbitrary operands (denominators forced positive).
func FuzzRatioCmp(f *testing.F) {
	f.Add(int64(1), int64(2), int64(1), int64(3))
	f.Add(int64(0), int64(1), int64(0), int64(9))
	f.Add(MaxCost, int64(1), MaxCost-1, int64(1))
	f.Fuzz(func(t *testing.T, a, b, c, d int64) {
		if a < 0 {
			a = -(a + 1)
		}
		if c < 0 {
			c = -(c + 1)
		}
		if b < 0 {
			b = -(b + 1)
		}
		if d < 0 {
			d = -(d + 1)
		}
		b, d = b%MaxCost+1, d%MaxCost+1
		got := RatioCmp(a, b, c, d)
		rev := RatioCmp(c, d, a, b)
		if got != -rev {
			t.Fatalf("RatioCmp not antisymmetric: (%d/%d vs %d/%d) = %d, reverse %d", a, b, c, d, got, rev)
		}
		if RatioLess(a, b, c, d) != (got < 0) || RatioLessEq(a, b, c, d) != (got <= 0) {
			t.Fatalf("Less/LessEq disagree with Cmp for %d/%d vs %d/%d", a, b, c, d)
		}
	})
}

// FuzzCongestWireRoundTrip backs the congestmsg analyzer's size registry
// with runtime evidence: the engine's generic kind+varint wire encoders
// must round-trip any value exactly and never exceed their declared
// MaxKindVarintBits bound, which every registered kind must fit. (congest
// does not import fl, so the problem-domain package can host this
// cross-check.)
func FuzzCongestWireRoundTrip(f *testing.F) {
	f.Add(byte('v'), int64(0), uint64(0))
	f.Add(byte('v'), int64(-1), uint64(1))
	f.Add(byte('S'), int64(1)<<62, uint64(1)<<63)
	f.Add(byte(0), int64(-1)<<62, ^uint64(0))
	f.Fuzz(func(t *testing.T, kind byte, v int64, u uint64) {
		p := congest.EncodeKindVarint(nil, kind, v)
		if k2, v2, ok := congest.DecodeKindVarint(p); !ok || k2 != kind || v2 != v {
			t.Fatalf("varint round trip (%#x, %d) -> (%#x, %d, %v)", kind, v, k2, v2, ok)
		}
		if len(p)*8 > congest.MaxKindVarintBits {
			t.Fatalf("EncodeKindVarint(%#x, %d) = %d bits, bound %d", kind, v, len(p)*8, congest.MaxKindVarintBits)
		}
		q := congest.EncodeKindUvarint(p, kind, u) // reuse p's storage: encoders must reset it
		if k2, u2, ok := congest.DecodeKindUvarint(q); !ok || k2 != kind || u2 != u {
			t.Fatalf("uvarint round trip (%#x, %d) -> (%#x, %d, %v)", kind, u, k2, u2, ok)
		}
		if len(q)*8 > congest.MaxKindVarintBits {
			t.Fatalf("EncodeKindUvarint(%#x, %d) = %d bits, bound %d", kind, u, len(q)*8, congest.MaxKindVarintBits)
		}
		// Every registered kind must fit the generic encoders' ceiling.
		for _, spec := range congest.PayloadSpecs() {
			if spec.MaxBits > congest.MaxKindVarintBits {
				t.Fatalf("registered kind %s declares %d bits, above the engine-wide varint ceiling %d", spec.Name, spec.MaxBits, congest.MaxKindVarintBits)
			}
		}
	})
}
