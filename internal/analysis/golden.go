package analysis

import (
	"fmt"
	"path/filepath"
	"regexp"
	"testing"
)

// RunGolden is the analysistest-style harness: it loads the package under
// internal/analysis/testdata/src/<name>, runs one analyzer on it
// (bypassing the package filter), and matches the diagnostics against
// `// want "regexp"` comments in the testdata sources. Every diagnostic
// must be wanted on its exact line and every want must fire — so the
// golden files both seed violations the analyzer must catch and pin the
// legitimate patterns it must leave silent.
func RunGolden(t *testing.T, a *Analyzer, name string) {
	t.Helper()
	root, err := ModuleRoot()
	if err != nil {
		t.Fatal(err)
	}
	pattern := "./" + filepath.ToSlash(filepath.Join("internal", "analysis", "testdata", "src", name))
	pkgs, err := Load(root, pattern)
	if err != nil {
		t.Fatalf("load %s: %v", pattern, err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("load %s: got %d packages, want 1", pattern, len(pkgs))
	}
	pkg := pkgs[0]

	wants := collectWants(t, pkg)
	for _, d := range RunAnalyzerUnfiltered(pkg, a) {
		key := fmt.Sprintf("%s:%d", d.Pos.Filename, d.Pos.Line)
		idx := -1
		for i, w := range wants[key] {
			if w.re.MatchString(d.Message) {
				idx = i
				break
			}
		}
		if idx < 0 {
			t.Errorf("%s:%d: unexpected diagnostic: %s", filepath.Base(d.Pos.Filename), d.Pos.Line, d.Message)
			continue
		}
		wants[key] = append(wants[key][:idx], wants[key][idx+1:]...)
	}
	for key, ws := range wants {
		for _, w := range ws {
			t.Errorf("%s: expected diagnostic matching %q did not fire", key, w.re)
		}
	}
}

type want struct{ re *regexp.Regexp }

// Expectations may be double- or backtick-quoted; backticks keep regexp
// backslashes readable.
var wantRe = regexp.MustCompile("// want ((?:(?:\"(?:[^\"\\\\]|\\\\.)*\"|`[^`]*`)\\s*)+)")
var quotedRe = regexp.MustCompile("\"((?:[^\"\\\\]|\\\\.)*)\"|`([^`]*)`")

// collectWants extracts the `// want "..."` expectations, keyed by
// filename:line.
func collectWants(t *testing.T, pkg *Package) map[string][]want {
	t.Helper()
	wants := map[string][]want{}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				for _, q := range quotedRe.FindAllStringSubmatch(m[1], -1) {
					pat := q[1]
					if pat == "" {
						pat = q[2]
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, pat, err)
					}
					key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
					wants[key] = append(wants[key], want{re: re})
				}
			}
		}
	}
	return wants
}
