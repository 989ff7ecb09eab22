package analysis

import "testing"

// The golden tests are the analyzers' acceptance criteria: each testdata
// package seeds real violations that must fire (each analyzer's audit
// mutations among them) and legitimate patterns that must stay silent.

func TestPoolonlyGolden(t *testing.T) { RunGolden(t, Poolonly, "poolonly") }
func TestHotmapGolden(t *testing.T)   { RunGolden(t, Hotmap, "hotmap") }
func TestDetrandGolden(t *testing.T)  { RunGolden(t, Detrand, "detrand") }

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
