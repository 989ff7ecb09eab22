// Command fltrace runs the distributed protocol with a round-by-round
// message trace, for debugging and for teaching what the protocol does.
//
// Usage:
//
//	flgen -family star -m 4 -nc 6 | fltrace -k 4
//	fltrace -in instance.ufl -k 16 -max-lines 200
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"dfl/internal/congest"
	"dfl/internal/core"
	"dfl/internal/fl"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "fltrace:", err)
		os.Exit(1)
	}
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("fltrace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		in       = fs.String("in", "-", "instance file ('-' for stdin)")
		k        = fs.Int("k", 4, "trade-off parameter")
		seed     = fs.Int64("seed", 1, "protocol seed")
		maxLines = fs.Int("max-lines", 500, "truncate the trace after this many message lines (0 = unlimited)")
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
	d, err := core.Derive(inst, core.Config{K: *k})
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "instance: %s\n", fl.ComputeStats(inst))
	fmt.Fprintf(stdout, "derived: chi=%d phases=%d iters/phase=%d rounds=%d (proto %d + cleanup)\n",
		d.Chi, d.Phases, d.ItersPerPhase, d.TotalRounds, d.ProtoRounds)

	m := inst.M()
	lines := 0
	truncated := false
	describe := func(msg congest.Message) string {
		return fmt.Sprintf("  %s -> %s  %s",
			nodeName(m, int(msg.From)), nodeName(m, int(msg.To)), core.DescribePayload(msg.Payload))
	}
	sol, rep, err := core.Solve(inst, core.Config{K: *k},
		core.WithSeed(*seed),
		core.WithObserver(func(round int, delivered []congest.Message) {
			if truncated {
				return
			}
			sub := "cleanup"
			if round < d.ProtoRounds {
				sub = [4]string{"clients: DONE", "facilities: OFFER", "clients: GRANT", "facilities: OPEN/CONNECT"}[round%4]
			}
			fmt.Fprintf(stdout, "round %d (%s): %d messages\n", round, sub, len(delivered))
			for _, msg := range delivered {
				fmt.Fprintln(stdout, describe(msg))
				lines++
				if *maxLines > 0 && lines >= *maxLines {
					fmt.Fprintln(stdout, "  ... trace truncated (-max-lines)")
					truncated = true
					return
				}
			}
		}))
	if err != nil {
		return err
	}
	cost := sol.Cost(inst)
	fmt.Fprintf(stdout, "\nresult: cost=%d open=%d rounds=%d messages=%d bits=%d cleanup-clients=%d\n",
		cost, sol.OpenCount(), rep.Net.Rounds, rep.Net.Messages, rep.Net.Bits, rep.CleanupClients)
	return nil
}

func nodeName(m, id int) string {
	if id < m {
		return fmt.Sprintf("f%d", id)
	}
	return fmt.Sprintf("c%d", id-m)
}
