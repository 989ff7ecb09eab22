package analysis

import "testing"

// The golden tests are the analyzers' acceptance criteria: each testdata
// package seeds real violations that must fire and legitimate patterns
// (including every //flvet: exemption form) that must stay silent.

func TestPoolonlyGolden(t *testing.T) { RunGolden(t, Poolonly, "poolonly") }
func TestHotmapGolden(t *testing.T)   { RunGolden(t, Hotmap, "hotmap") }
func TestDettaintGolden(t *testing.T) { RunGolden(t, Dettaint, "dettaint") }

// The transport boundary goldens pin both halves of //flvet:transport: a
// package under a transport/ path is exempt wholesale, and any other
// package claiming the boundary gets the directive itself reported while
// checking continues.
func TestDettaintTransportGolden(t *testing.T) { RunGolden(t, Dettaint, "transportclean") }
func TestDettaintBoundaryMisuseGolden(t *testing.T) {
	RunGolden(t, Dettaint, "boundarymisusetaint")
}

func TestSuiteMetadata(t *testing.T) {
	seen := map[string]bool{}
	for _, a := range All() {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %+v missing metadata", a)
		}
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
		if len(a.Packages) == 0 {
			t.Errorf("analyzer %s must scope itself to explicit packages", a.Name)
		}
	}
}

func TestAppliesTo(t *testing.T) {
	if !Poolonly.AppliesTo("dfl/internal/congest") {
		t.Error("poolonly must apply to internal/congest")
	}
	if Poolonly.AppliesTo("dfl/internal/core") {
		t.Error("poolonly must not apply to internal/core")
	}
	all := &Analyzer{Name: "x"}
	if !all.AppliesTo("anything") {
		t.Error("empty Packages means every package")
	}
}

func TestCutDirective(t *testing.T) {
	cases := []struct {
		body, name, args string
		ok               bool
	}{
		{"ordered", "ordered", "", true},
		{"ordered keys sorted below", "ordered", "keys sorted below", true},
		{"encoder maxbits=88", "encoder", "maxbits=88", true},
		{"orderedX", "ordered", "", false},
		{"encoder", "frozen", "", false},
	}
	for _, c := range cases {
		args, ok := cutDirective(c.body, c.name)
		if ok != c.ok || args != c.args {
			t.Errorf("cutDirective(%q, %q) = (%q, %v), want (%q, %v)", c.body, c.name, args, ok, c.args, c.ok)
		}
	}
}
