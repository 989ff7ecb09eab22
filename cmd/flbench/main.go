// Command flbench regenerates the evaluation: every table and figure in
// EXPERIMENTS.md. Each experiment prints an aligned-text table to stdout
// and, with -out, also writes one CSV per table for plotting; `make
// results` writes them to results/, where internal/bench's tests hold them
// as goldens. With -json the produced tables are additionally written as
// one machine-readable report (schema dfl-bench/1), and -cpuprofile /
// -memprofile capture pprof profiles of the run so hot-path regressions
// can be diagnosed without editing code. Timing lives in cmd/flperf.
//
// Usage:
//
//	flbench [-list] [-exp all|E1,E2,...] [-seed N] [-runs N] [-out DIR]
//	        [-faults SPEC] [-json FILE] [-note STR]
//	        [-cpuprofile FILE] [-memprofile FILE]
//
// -faults injects an adversarial fault schedule into the chaos and
// byzantine experiments (E14, E15), e.g.
// -faults drop=0.2,crash=3@5,corrupt=0.3,byz=0@8 — see bench.ParseFaultSpec
// for the full syntax.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"dfl/internal/bench"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "flbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("flbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		expFlag    = fs.String("exp", "all", "experiment ids (comma separated, see -list) or 'all'")
		seed       = fs.Int64("seed", 1, "master seed for instances and protocols")
		runs       = fs.Int("runs", 0, "protocol seeds averaged per measurement (0 = default)")
		outDir     = fs.String("out", "", "directory for CSV output (optional)")
		listOnly   = fs.Bool("list", false, "list experiments and exit")
		jsonPath   = fs.String("json", "", "write all produced tables as one machine-readable JSON report")
		note       = fs.String("note", "", "free-form annotation recorded in the -json report")
		faultSpec  = fs.String("faults", "", "fault schedule for the chaos/byzantine experiments, e.g. drop=0.2,crash=3@5,corrupt=0.3,byz=0@8")
		cpuProfile = fs.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memProfile = fs.String("memprofile", "", "write a pprof heap profile at exit to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fmt.Errorf("create cpu profile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fmt.Errorf("start cpu profile: %w", err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(stderr, "flbench: create mem profile:", err)
				return
			}
			runtime.GC() // settle the heap so the profile reflects live data
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(stderr, "flbench: write mem profile:", err)
			}
			f.Close()
		}()
	}

	if *listOnly {
		for _, e := range bench.Experiments() {
			fmt.Fprintf(stdout, "%-4s %-7s %-45s claim: %s\n", e.ID, e.Kind, e.Name, e.Claim)
		}
		return nil
	}

	var exps []bench.Experiment
	if *expFlag == "all" {
		exps = bench.Experiments()
	} else {
		for _, id := range strings.Split(*expFlag, ",") {
			e, err := bench.ExperimentByID(strings.TrimSpace(id))
			if err != nil {
				return err
			}
			exps = append(exps, e)
		}
	}
	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			return fmt.Errorf("create output dir: %w", err)
		}
	}

	if *faultSpec != "" {
		// Fail on a malformed spec before any experiment burns time.
		if _, err := bench.ParseFaultSpec(*faultSpec); err != nil {
			return err
		}
	}
	params := bench.Params{Seed: *seed, Runs: *runs, FaultSpec: *faultSpec}
	report := jsonReport{
		Schema:     "dfl-bench/1",
		GoVersion:  runtime.Version(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Seed:       *seed,
		Note:       *note,
		FaultSpec:  *faultSpec,
	}
	for _, e := range exps {
		start := time.Now()
		fmt.Fprintf(stdout, "== %s: %s ==\n   claim: %s\n\n", e.ID, e.Name, e.Claim)
		tables, err := e.Run(params)
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		for _, t := range tables {
			if err := t.Render(stdout); err != nil {
				return err
			}
			if *outDir != "" {
				name := filepath.Join(*outDir, strings.ToLower(t.ID)+".csv")
				if err := writeCSV(name, t); err != nil {
					return err
				}
				fmt.Fprintf(stdout, "  wrote %s\n", name)
			}
			report.Tables = append(report.Tables, jsonTable{
				Experiment: e.ID,
				ID:         t.ID,
				Title:      t.Title,
				Note:       t.Note,
				Columns:    t.Columns,
				Rows:       t.Rows,
			})
		}
		fmt.Fprintf(stdout, "  (%s in %v)\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
	if *jsonPath != "" {
		if err := writeJSON(*jsonPath, report); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %s\n", *jsonPath)
	}
	return nil
}

// jsonReport is the -json output: the full set of produced tables plus
// enough environment metadata to compare reports across machines and
// commits. BENCH_seed.json at the repo root is one of these.
type jsonReport struct {
	Schema     string      `json:"schema"`
	GoVersion  string      `json:"go_version"`
	GoMaxProcs int         `json:"gomaxprocs"`
	Seed       int64       `json:"seed"`
	Note       string      `json:"note,omitempty"`
	FaultSpec  string      `json:"faults,omitempty"`
	Tables     []jsonTable `json:"tables"`
}

type jsonTable struct {
	Experiment string     `json:"experiment"`
	ID         string     `json:"id"`
	Title      string     `json:"title"`
	Note       string     `json:"note,omitempty"`
	Columns    []string   `json:"columns"`
	Rows       [][]string `json:"rows"`
}

func writeJSON(name string, r jsonReport) error {
	f, err := os.Create(name)
	if err != nil {
		return fmt.Errorf("create %s: %w", name, err)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	werr := enc.Encode(r)
	cerr := f.Close()
	if werr != nil {
		return fmt.Errorf("encode %s: %w", name, werr)
	}
	return cerr
}

func writeCSV(name string, t bench.Table) error {
	f, err := os.Create(name)
	if err != nil {
		return fmt.Errorf("create %s: %w", name, err)
	}
	werr := t.CSV(f)
	cerr := f.Close()
	if werr != nil {
		return werr
	}
	return cerr
}
