// Command flvet is the multichecker driver for the repo's custom static
// analyzers (internal/analysis): poolonly and hotmap, two syntactic
// checks, and dettaint, a dataflow check. Each guards a defect class that
// the tests cannot see — a per-round goroutine, a per-call map, a
// nondeterministic value that is constant on the test machine (DESIGN.md
// §9 has the mutation audit behind the suite). `make lint` (folded into
// `make check`) runs it over ./..., so every change is gated on the suite.
//
// Usage:
//
//	flvet [-only name[,name]] [-list] [-format text|json|sarif|baseline] [-baseline file] [packages]
//
// Packages default to ./... resolved against the enclosing module root.
// -format selects text (the default vet-style lines), json (a findings
// array), sarif (SARIF 2.1.0 for GitHub code scanning), or baseline (the
// suppression-file format). -baseline subtracts a committed suppression
// file from the findings: grandfathered entries do not fail the run,
// stale entries only warn.
//
// Exit status: 0 clean, 1 findings (after baseline subtraction), 2
// operational failure. A package that fails to load or type-check is an
// operational failure reported with its import path, never a finding.
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
	format := flags.String("format", "text", "output format: text, json, sarif, or baseline")
	baselinePath := flags.String("baseline", "", "suppression file of grandfathered findings (analyzer<TAB>file<TAB>message lines)")
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
	switch *format {
	case "text", "json", "sarif", "baseline":
	default:
		fmt.Fprintf(stderr, "flvet: unknown -format %q (want text, json, sarif, or baseline)\n", *format)
		return 2
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

	var baseline analysis.Baseline
	if *baselinePath != "" {
		f, err := os.Open(*baselinePath)
		if err != nil {
			fmt.Fprintf(stderr, "flvet: %v\n", err)
			return 2
		}
		baseline, err = analysis.ParseBaseline(f)
		f.Close()
		if err != nil {
			fmt.Fprintf(stderr, "flvet: baseline %s: %v\n", *baselinePath, err)
			return 2
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
	stale := []string(nil)
	if baseline != nil {
		findings, stale = baseline.Filter(findings)
	}

	switch *format {
	case "text":
		err = analysis.WriteText(stdout, findings)
	case "json":
		err = analysis.WriteJSON(stdout, findings)
	case "sarif":
		err = analysis.WriteSARIF(stdout, findings, suite)
	case "baseline":
		err = analysis.WriteBaseline(stdout, findings)
	}
	if err != nil {
		fmt.Fprintf(stderr, "flvet: %v\n", err)
		return 2
	}
	for _, s := range stale {
		fmt.Fprintf(stderr, "flvet: stale baseline entry (fixed? remove it): %s\n", strings.ReplaceAll(s, "\t", " | "))
	}
	if len(findings) > 0 {
		fmt.Fprintf(stderr, "flvet: %d finding(s)\n", len(findings))
		return 1
	}
	return 0
}
