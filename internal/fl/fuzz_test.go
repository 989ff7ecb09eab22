package fl

import (
	"bytes"
	"strings"
	"testing"
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
