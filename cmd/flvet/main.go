// Command flvet is the multichecker driver for the repo's custom static
// analyzers (internal/analysis), three syntactic checks for defects the
// tests cannot see: poolonly (a per-round goroutine), hotmap (a per-call
// map on the hot path) and detrand (a clock, environment, host or global
// math/rand call in a protocol package).
// DESIGN.md §9 has the mutation audit behind the suite. `make lint`
// (folded into `make check`) runs it over ./..., so every change is gated
// on the suite.
//
// Usage:
//
//	flvet [-only name[,name]] [-list] [packages]
//
// Packages default to ./... resolved against the enclosing module root.
// Findings print as vet-style file:line:col lines, the shape the CI
// problem matcher reads. There is no suppression file and no exemption
// directive: every finding fails the run.
//
// Exit status: 0 clean, 1 findings, 2 operational failure. A package that
// fails to load or type-check is an operational failure reported with its
// import path, never a finding.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"dfl/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	flags := flag.NewFlagSet("flvet", flag.ContinueOnError)
	flags.SetOutput(stderr)
	list := flags.Bool("list", false, "list the analyzers and exit")
	only := flags.String("only", "", "comma-separated analyzer names to run (default: all)")
	if err := flags.Parse(args); err != nil {
		return 2
	}

	suite := analysis.All()
	if *list {
		for _, a := range suite {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	if *only != "" {
		byName := map[string]*analysis.Analyzer{}
		for _, a := range suite {
			byName[a.Name] = a
		}
		suite = suite[:0]
		for _, name := range strings.Split(*only, ",") {
			a, ok := byName[strings.TrimSpace(name)]
			if !ok {
				fmt.Fprintf(stderr, "flvet: unknown analyzer %q\n", name)
				return 2
			}
			suite = append(suite, a)
		}
	}

	patterns := flags.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	root, err := analysis.ModuleRoot()
	if err != nil {
		fmt.Fprintf(stderr, "flvet: %v\n", err)
		return 2
	}
	pkgs, err := analysis.Load(root, patterns...)
	if err != nil {
		fmt.Fprintf(stderr, "flvet: %v\n", err)
		return 2
	}

	var diags []analysis.Diagnostic
	for _, pkg := range pkgs {
		diags = append(diags, analysis.RunAnalyzers(pkg, suite)...)
	}
	findings := analysis.Findings(diags, root)
	if err := analysis.WriteText(stdout, findings); err != nil {
		fmt.Fprintf(stderr, "flvet: %v\n", err)
		return 2
	}
	if len(findings) > 0 {
		fmt.Fprintf(stderr, "flvet: %d finding(s)\n", len(findings))
		return 1
	}
	return 0
}
