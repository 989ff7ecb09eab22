// Package analysis is the home of flvet, a suite of static analyzers for
// the defects that the simulator's tests cannot see:
//
//   - poolonly: a goroutine spawned outside the shard pool, which changes
//     no result but costs a spawn per round;
//   - hotmap: a map allocated in an engine hot-path file, which costs an
//     allocation per call that stays under the allocation gates;
//   - detrand: a wall-clock read, an environment or host query, or a
//     global math/rand draw in a protocol package, whose value is not a
//     function of the run's seed; an environment or host value is even
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
// small stdlib-only reimplementations. No analyzer has an exemption
// directive: a finding is fixed, not annotated.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
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
	Info     *types.Info

	diags *[]Diagnostic
}

func newPass(a *Analyzer, pkg *Package, sink *[]Diagnostic) *Pass {
	return &Pass{
		Analyzer: a,
		Fset:     pkg.Fset,
		Files:    pkg.Files,
		Info:     pkg.Info,
		diags:    sink,
	}
}

// Reportf records one diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
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
