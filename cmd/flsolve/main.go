// Command flsolve runs one facility-location algorithm on one instance and
// prints the solution summary. The instance is read from a file or stdin in
// the text instance format (see flgen).
//
// Usage:
//
//	flgen -family euclidean -m 30 -nc 150 | flsolve -algo dist -k 16
//	flsolve -algo greedy -in instance.ufl -solution
//	flsolve -algo all -in instance.ufl
//	flsolve -algo dist -k 16 -cap 8 -in instance.ufl   # soft-capacitated
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"dfl/internal/core"
	"dfl/internal/fl"
	"dfl/internal/lp"
	"dfl/internal/seq"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "flsolve:", err)
		os.Exit(1)
	}
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("flsolve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		algo     = fs.String("algo", "dist", "algorithm: dist, greedy, jv, jms, mp, localsearch, exact, cheapest, openall, all")
		in       = fs.String("in", "-", "instance file ('-' for stdin)")
		k        = fs.Int("k", 16, "trade-off parameter for -algo dist")
		seed     = fs.Int64("seed", 1, "protocol seed for -algo dist")
		capacity = fs.Int("cap", 0, "per-copy soft capacity for -algo dist (0 = uncapacitated)")
		showSol  = fs.Bool("solution", false, "print open facilities and assignments")
		save     = fs.String("save", "", "write the (last) solution to this file in the text solution format")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	r := stdin
	if *in != "-" {
		f, err := os.Open(*in)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	inst, err := fl.Read(r)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, "instance:", fl.ComputeStats(inst))
	lb, err := lp.LowerBound(inst)
	if err != nil {
		return err
	}
	if lb < 1 {
		lb = 1
	}
	fmt.Fprintln(stdout, "LP lower bound:", lb)

	if *capacity > 0 {
		return runSoftCap(stdout, inst, *k, *capacity, *seed, lb)
	}

	names := []string{*algo}
	if *algo == "all" {
		names = []string{"dist", "greedy", "jv", "jms", "mp", "localsearch", "cheapest", "openall"}
		if inst.M() <= seq.MaxExactFacilities {
			names = append(names, "exact")
		}
	}
	for _, name := range names {
		start := time.Now()
		sol, rep, err := solveOne(inst, name, *k, *seed)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		if err := fl.Validate(inst, sol); err != nil {
			return fmt.Errorf("%s produced invalid solution: %w", name, err)
		}
		cost := sol.Cost(inst)
		fmt.Fprintf(stdout, "%-12s cost=%-10d ratio=%-8.3f open=%-4d elapsed=%v\n",
			name, cost, float64(cost)/float64(lb), sol.OpenCount(), time.Since(start).Round(time.Microsecond))
		if rep != nil {
			fmt.Fprintf(stdout, "             rounds=%d messages=%d bits=%d chi=%d phases=%d cleanup-clients=%d\n",
				rep.Net.Rounds, rep.Net.Messages, rep.Net.Bits,
				rep.Derived.Chi, rep.Derived.Phases, rep.CleanupClients)
		}
		if *showSol {
			printSolution(stdout, inst, sol)
		}
		if *save != "" {
			if err := saveSolution(*save, sol); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "             wrote %s\n", *save)
		}
	}
	return nil
}

func saveSolution(name string, sol *fl.Solution) error {
	f, err := os.Create(name)
	if err != nil {
		return fmt.Errorf("create %s: %w", name, err)
	}
	werr := fl.WriteSolution(f, sol)
	cerr := f.Close()
	if werr != nil {
		return werr
	}
	return cerr
}

func runSoftCap(stdout io.Writer, inst *fl.Instance, k, capacity int, seed, lb int64) error {
	start := time.Now()
	sol, rep, err := core.SolveSoftCap(inst,
		core.Config{K: k, SoftCapacity: capacity}, core.WithSeed(seed))
	if err != nil {
		return err
	}
	if err := fl.ValidateCap(inst, capacity, sol); err != nil {
		return fmt.Errorf("invalid capacitated solution: %w", err)
	}
	copies := 0
	open := 0
	for _, c := range sol.Copies {
		copies += c
		if c > 0 {
			open++
		}
	}
	cost := sol.Cost(inst)
	fmt.Fprintf(stdout, "dist-cap%-5d cost=%-10d ratio=%-8.3f open=%-4d copies=%-4d elapsed=%v\n",
		capacity, cost, float64(cost)/float64(lb), open, copies, time.Since(start).Round(time.Microsecond))
	fmt.Fprintf(stdout, "             rounds=%d messages=%d bits=%d\n",
		rep.Net.Rounds, rep.Net.Messages, rep.Net.Bits)
	return nil
}

func solveOne(inst *fl.Instance, algo string, k int, seed int64) (*fl.Solution, *core.Report, error) {
	switch algo {
	case "dist":
		return core.Solve(inst, core.Config{K: k}, core.WithSeed(seed))
	case "greedy":
		sol, err := seq.Greedy(inst)
		return sol, nil, err
	case "jv":
		sol, err := seq.JainVazirani(inst)
		return sol, nil, err
	case "jms":
		sol, err := seq.JMS(inst)
		return sol, nil, err
	case "mp":
		sol, err := seq.MettuPlaxton(inst)
		return sol, nil, err
	case "localsearch":
		sol, err := seq.LocalSearch(inst, nil, seq.LocalSearchConfig{})
		return sol, nil, err
	case "exact":
		sol, err := seq.Exact(inst)
		return sol, nil, err
	case "cheapest":
		sol, err := seq.CheapestPerClient(inst)
		return sol, nil, err
	case "openall":
		sol, err := seq.OpenAll(inst)
		return sol, nil, err
	default:
		return nil, nil, fmt.Errorf("unknown algorithm %q", algo)
	}
}

func printSolution(stdout io.Writer, inst *fl.Instance, sol *fl.Solution) {
	fmt.Fprint(stdout, "open:")
	for i, o := range sol.Open {
		if o {
			fmt.Fprintf(stdout, " %d", i)
		}
	}
	fmt.Fprintln(stdout)
	for j, i := range sol.Assign {
		c, _ := inst.Cost(i, j)
		fmt.Fprintf(stdout, "client %d -> facility %d (cost %d)\n", j, i, c)
	}
}
