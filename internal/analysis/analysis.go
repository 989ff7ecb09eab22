// Package analysis is the home of flvet, a suite of static analyzers for
// the defects that the simulator's tests cannot see:
//
//   - poolonly: a goroutine spawned outside the shard pool, which changes
//     no result but costs a spawn per round;
//   - hotmap: a map allocated in an engine hot-path file, which costs an
//     allocation per call that stays under the allocation gates;
//   - dettaint: a nondeterministic value — clock, environment, host,
//     map order, mutable global — reaching a payload or a seed, which is
//     constant on the machine the tests run on.
//
// Every analyzer stays only while it catches a one-line defect that no
// test, race run, fuzz smoke or allocation gate catches; DESIGN.md §9
// holds the mutation audit.
//
// The vocabulary (Analyzer, Pass, Diagnostic) deliberately mirrors
// golang.org/x/tools/go/analysis so analyzers could migrate to the real
// framework if the dependency ever becomes available; the module is kept
// dependency-free, so the driver, loader, and golden-test harness here are
// small stdlib-only reimplementations.
//
// Analyzers honour `//flvet:` exemption directives placed on the offending
// line, the line above it, or (for declarations) in the doc comment; see
// DESIGN.md's "Static contracts" section for the full annotation catalogue.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and -only filters.
	Name string
	// Doc is a one-paragraph description of the contract enforced.
	Doc string
	// Packages lists the import paths the driver applies this analyzer to;
	// empty means every loaded package. The golden-test harness bypasses
	// this filter and runs the analyzer unconditionally.
	Packages []string
	// Run performs the check, reporting findings through pass.Reportf.
	Run func(*Pass)
}

// AppliesTo reports whether the driver should run the analyzer on the
// package with the given import path.
func (a *Analyzer) AppliesTo(path string) bool {
	if len(a.Packages) == 0 {
		return true
	}
	for _, p := range a.Packages {
		if p == path {
			return true
		}
	}
	return false
}

// Diagnostic is one finding, pre-resolved to a file position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// Pass carries one analyzed package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	diags *[]Diagnostic
	// directives maps filename -> line -> flvet directive bodies (the text
	// after "//flvet:", e.g. "ordered" or "encoder maxbits=88").
	directives map[string]map[int][]string
}

func newPass(a *Analyzer, pkg *Package, sink *[]Diagnostic) *Pass {
	p := &Pass{
		Analyzer:   a,
		Fset:       pkg.Fset,
		Files:      pkg.Files,
		Pkg:        pkg.Types,
		Info:       pkg.Info,
		diags:      sink,
		directives: map[string]map[int][]string{},
	}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				body, ok := strings.CutPrefix(c.Text, "//flvet:")
				if !ok {
					continue
				}
				pos := p.Fset.Position(c.Pos())
				byLine := p.directives[pos.Filename]
				if byLine == nil {
					byLine = map[int][]string{}
					p.directives[pos.Filename] = byLine
				}
				byLine[pos.Line] = append(byLine[pos.Line], strings.TrimSpace(body))
			}
		}
	}
	return p
}

// Reportf records one diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// directiveAt returns the arguments of the first flvet directive with the
// given name on the exact source line of pos or the line directly above it
// ("//flvet:ordered" on the `for` line or its own line above both count).
func (p *Pass) directiveAt(pos token.Pos, name string) (args string, ok bool) {
	at := p.Fset.Position(pos)
	byLine := p.directives[at.Filename]
	for _, line := range []int{at.Line, at.Line - 1} {
		for _, d := range byLine[line] {
			if rest, found := cutDirective(d, name); found {
				return rest, true
			}
		}
	}
	return "", false
}

// docDirective returns the arguments of the first flvet directive with the
// given name inside a declaration's doc comment group.
func docDirective(doc *ast.CommentGroup, name string) (args string, ok bool) {
	if doc == nil {
		return "", false
	}
	for _, c := range doc.List {
		body, found := strings.CutPrefix(c.Text, "//flvet:")
		if !found {
			continue
		}
		if rest, match := cutDirective(strings.TrimSpace(body), name); match {
			return rest, true
		}
	}
	return "", false
}

// cutDirective splits a directive body ("encoder maxbits=88") into name and
// arguments, matching on the name.
func cutDirective(body, name string) (args string, ok bool) {
	if body == name {
		return "", true
	}
	if rest, found := strings.CutPrefix(body, name+" "); found {
		return strings.TrimSpace(rest), true
	}
	return "", false
}

// RunAnalyzers applies each analyzer that matches pkg's import path and
// returns the findings sorted by position.
func RunAnalyzers(pkg *Package, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, a := range analyzers {
		if !a.AppliesTo(pkg.ImportPath) {
			continue
		}
		a.Run(newPass(a, pkg, &diags))
	}
	sortDiagnostics(diags)
	return diags
}

// RunAnalyzerUnfiltered runs a single analyzer regardless of its package
// filter; the golden-test harness uses it on testdata packages.
func RunAnalyzerUnfiltered(pkg *Package, a *Analyzer) []Diagnostic {
	var diags []Diagnostic
	a.Run(newPass(a, pkg, &diags))
	sortDiagnostics(diags)
	return diags
}

func sortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return diags[i].Message < diags[j].Message
	})
}
