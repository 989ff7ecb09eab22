package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"dfl/internal/analysis"
)

// TestRepoPassesSuite is the regression gate: the repository itself must
// stay clean under every analyzer, so `go test ./...` (tier 1) fails the
// moment a protocol package reads the clock, the environment, the host or
// the global math/rand stream, an engine hot-path file allocates a map, or
// internal/congest spawns a stray goroutine — even if someone forgets to
// run `make lint`.
func TestRepoPassesSuite(t *testing.T) {
	root, err := analysis.ModuleRoot()
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := analysis.Load(root, "./...")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) == 0 {
		t.Fatal("loaded no packages")
	}
	sawProtocol := false
	for _, pkg := range pkgs {
		if pkg.ImportPath == "dfl/internal/congest" {
			sawProtocol = true
		}
		for _, d := range analysis.RunAnalyzers(pkg, analysis.All()) {
			t.Errorf("%s:%d:%d: %s [%s]", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message, d.Analyzer)
		}
	}
	if !sawProtocol {
		t.Error("./... did not include dfl/internal/congest; the gate is not covering the protocol packages")
	}
}

// runCapture invokes the driver exactly as main does, with captured output.
func runCapture(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errOut bytes.Buffer
	code = run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

// TestBrokenPackageIsOperationalFailure pins the loader contract: a
// package that fails to compile must exit 2 (not 0, not 1) and the error
// must name the failing import path, so a multi-package run says which
// target broke instead of dying on an anonymous typecheck error.
func TestBrokenPackageIsOperationalFailure(t *testing.T) {
	code, _, stderr := runCapture(t, "./internal/analysis/testdata/src/broken")
	if code != 2 {
		t.Fatalf("exit = %d, want 2 (operational failure); stderr: %s", code, stderr)
	}
	if !strings.Contains(stderr, "dfl/internal/analysis/testdata/src/broken") {
		t.Errorf("stderr does not name the failing package:\n%s", stderr)
	}
}

// TestUnknownAnalyzerAndFormatExit2 pins that a run flvet cannot do as
// asked is an operational failure, not a clean pass: an unknown analyzer,
// and any -format, since text is the only output.
func TestUnknownAnalyzerAndFormatExit2(t *testing.T) {
	if code, _, stderr := runCapture(t, "-only", "nosuch", "./internal/seq"); code != 2 || !strings.Contains(stderr, "nosuch") {
		t.Errorf("-only nosuch: exit=%d stderr=%q, want exit 2 naming the analyzer", code, stderr)
	}
	if code, _, stderr := runCapture(t, "-format", "sarif", "./internal/seq"); code != 2 || !strings.Contains(stderr, "-format") {
		t.Errorf("-format sarif: exit=%d stderr=%q, want exit 2 naming the flag", code, stderr)
	}
}

// TestListMatchesDocs is the drift gate between `flvet -list` and the
// analyzer tables in README.md and DESIGN.md §9: every analyzer the
// driver runs must be documented, in the same order, and the docs must
// not advertise analyzers that no longer exist.
func TestListMatchesDocs(t *testing.T) {
	var names []string
	for _, a := range analysis.All() {
		names = append(names, a.Name)
	}

	code, stdout, stderr := runCapture(t, "-list")
	if code != 0 {
		t.Fatalf("-list exit = %d; stderr: %s", code, stderr)
	}
	var listed []string
	for _, line := range strings.Split(strings.TrimSpace(stdout), "\n") {
		fields := strings.Fields(line)
		if len(fields) < 2 {
			t.Errorf("-list line %q lacks a doc string", line)
			continue
		}
		listed = append(listed, fields[0])
	}
	if !slices.Equal(listed, names) {
		t.Errorf("-list = %v\nAll() = %v", listed, names)
	}

	root, err := analysis.ModuleRoot()
	if err != nil {
		t.Fatal(err)
	}
	rowRe := regexp.MustCompile("(?m)^\\| `([a-z]+)` \\|")
	for _, doc := range []struct{ file, section string }{
		{"README.md", ""},
		{"DESIGN.md", "## 9. Static contracts"},
	} {
		raw, err := os.ReadFile(filepath.Join(root, doc.file))
		if err != nil {
			t.Fatal(err)
		}
		text := string(raw)
		if doc.section != "" {
			start := strings.Index(text, doc.section)
			if start < 0 {
				t.Fatalf("%s: section %q not found", doc.file, doc.section)
			}
			text = text[start:]
			if end := strings.Index(text[1:], "\n## "); end >= 0 {
				text = text[:end+1]
			}
		}
		var documented []string
		for _, m := range rowRe.FindAllStringSubmatch(text, -1) {
			documented = append(documented, m[1])
		}
		if !slices.Equal(documented, names) {
			t.Errorf("%s analyzer table drifted:\n documented: %v\n All():     %v", doc.file, documented, names)
		}
	}
}
