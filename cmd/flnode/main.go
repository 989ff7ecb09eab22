// Command flnode is one party of a real distributed deployment: it either
// hosts a shard of the facility-location protocol's nodes and speaks UDP to
// its peer shards, or acts as the gateway that sequences the fleet's round
// barriers, collects the surviving shards' result fragments, assembles them
// and certifies the solution.
//
// A three-shard loopback deployment by hand:
//
//	flgen -family euclidean -m 15 -nc 60 > inst.ufl
//	flnode -role gateway -in inst.ufl -shards 3 -k 16 &        # prints its address
//	flnode -role shard -id 0 -shards 3 -gateway 127.0.0.1:PORT -in inst.ufl -k 16 &
//	flnode -role shard -id 1 -shards 3 -gateway 127.0.0.1:PORT -in inst.ufl -k 16 &
//	flnode -role shard -id 2 -shards 3 -gateway 127.0.0.1:PORT -in inst.ufl -k 16
//
// All parties must agree on the instance, -shards, -k and -seed; the
// fault-free result is then byte-identical to `flsolve -algo dist` on the
// same instance and seed. Kill any shard mid-run and the rest degrade
// gracefully: the gateway masks it down and the assembled solution
// certifies with the victim's clients as exemptions.
//
// With -checkpoint FILE a shard snapshots a resumable image after every
// round; relaunching it with -resume rejoins the fleet
// from that image under a fresh incarnation, and if the gateway admits it
// within -admit-window rounds of the death the outage degrades to
// transient packet loss — the run ends with zero exemptions instead of a
// masked span.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"dfl/internal/congest"
	"dfl/internal/core"
	"dfl/internal/fl"
	"dfl/internal/transport/udp"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "flnode:", err)
		os.Exit(1)
	}
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("flnode", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		role       = fs.String("role", "", "gateway or shard")
		in         = fs.String("in", "-", "instance file ('-' for stdin)")
		shards     = fs.Int("shards", 2, "number of shards in the fleet")
		id         = fs.Int("id", 0, "this shard's index in [0,shards) (role shard)")
		gateway    = fs.String("gateway", "", "gateway address to dial (role shard)")
		listen     = fs.String("listen", "127.0.0.1:0", "gateway bind address (role gateway)")
		k          = fs.Int("k", 16, "protocol trade-off parameter")
		seed       = fs.Int64("seed", 1, "protocol seed (must match across the fleet)")
		chaosSpec  = fs.String("chaos", "", "packet chaos on this shard's socket, e.g. loss=0.1,dup=0.05,delay=0.05,lag=5ms (the seed used is printed to stderr)")
		roundDelay = fs.Duration("round-delay", 0, "artificial pause per round (stretches runs for churn testing)")
		showSol    = fs.Bool("solution", false, "gateway: print open facilities and assignments")
		ckptFile   = fs.String("checkpoint", "", "shard: write a resumable checkpoint image to this file")
		resume     = fs.Bool("resume", false, "shard: resume from -checkpoint instead of starting fresh (rejoins the fleet)")
		admitWin   = fs.Int("admit-window", 0, "gateway: rounds a down shard may rejoin within (0 = default)")
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
	cfg := core.Config{K: *k}
	if *shards < 1 {
		return fmt.Errorf("need at least one shard, got %d", *shards)
	}
	spans := congest.SplitSpans(inst.M()+inst.NC(), *shards)
	if len(spans) != *shards {
		return fmt.Errorf("%d shards over %d nodes leaves empty shards", *shards, inst.M()+inst.NC())
	}
	switch *role {
	case "gateway":
		return runGateway(stdout, inst, cfg, spans, *listen, *admitWin, *showSol)
	case "shard":
		return runShard(stdout, stderr, inst, cfg, spans, *id, *gateway, *seed, *chaosSpec, *roundDelay,
			shardCkpt{file: *ckptFile, resume: *resume})
	default:
		return fmt.Errorf("-role must be gateway or shard, got %q", *role)
	}
}

func runGateway(stdout io.Writer, inst *fl.Instance, cfg core.Config, spans []congest.Span, listen string, admitWin int, showSol bool) error {
	d, err := core.Derive(inst, cfg)
	if err != nil {
		return err
	}
	gw, err := udp.NewGateway(listen, spans, udp.Config{AdmitWindow: admitWin})
	if err != nil {
		return err
	}
	defer gw.Close()
	// The first output line is machine-readable: harnesses parse the bound
	// address from it before launching the shard fleet.
	fmt.Fprintf(stdout, "gateway %s shards=%d\n", gw.Addr(), len(spans))
	start := time.Now()
	res, err := gw.Run(d.TotalRounds + 8)
	if err != nil {
		return err
	}
	frags := make([]*core.Fragment, len(spans))
	for i, p := range res.Fragments {
		if p == nil {
			fmt.Fprintf(stdout, "shard %d: down\n", i)
			continue
		}
		frag, err := core.DecodeFragment(p, inst.M(), inst.NC())
		if err != nil {
			return fmt.Errorf("shard %d fragment: %w", i, err)
		}
		frags[i] = frag
	}
	sol, rep, err := core.Assemble(inst, cfg, frags)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "certified cost=%d open=%d rounds=%d wall=%v\n",
		rep.Cost, rep.OpenFacilities, res.Rounds, time.Since(start).Round(time.Millisecond))
	fmt.Fprintf(stdout, "exemptions dead_facilities=%d dead_clients=%d orphaned=%d unservable=%d\n",
		len(rep.DeadFacilities), len(rep.DeadClients), len(rep.OrphanedClients), len(rep.UnservableClients))
	if showSol {
		for i, open := range sol.Open {
			if open {
				fmt.Fprintf(stdout, "open %d\n", i)
			}
		}
		for j, i := range sol.Assign {
			fmt.Fprintf(stdout, "assign %d %d\n", j, i)
		}
	}
	return nil
}

// shardCkpt bundles the shard role's checkpoint/resume options.
type shardCkpt struct {
	file   string
	resume bool
}

func runShard(stdout, stderr io.Writer, inst *fl.Instance, cfg core.Config, spans []congest.Span, id int, gateway string, seed int64, chaosSpec string, roundDelay time.Duration, ck shardCkpt) error {
	if gateway == "" {
		return fmt.Errorf("role shard needs -gateway")
	}
	if id < 0 || id >= len(spans) {
		return fmt.Errorf("-id %d outside [0,%d)", id, len(spans))
	}
	if ck.resume && ck.file == "" {
		return fmt.Errorf("-resume needs -checkpoint")
	}
	chaos, err := udp.ParseChaos(chaosSpec)
	if err != nil {
		return err
	}
	var sink core.CheckpointSink
	if ck.file != "" {
		sink = core.NewFileSink(ck.file)
	}

	var image []byte
	resumeRound := 0
	if ck.resume {
		image, err = os.ReadFile(ck.file)
		if err != nil {
			return fmt.Errorf("resume: %w", err)
		}
		ckpt, err := core.DecodeCheckpoint(image)
		if err != nil {
			return fmt.Errorf("resume: %w", err)
		}
		resumeRound = ckpt.Rounds()
	}

	var sh *udp.Shard
	if ck.resume {
		sh, err = udp.Rejoin(id, len(spans), gateway, resumeRound, udp.Config{}, chaos)
	} else {
		sh, err = udp.Dial(id, len(spans), gateway, udp.Config{}, chaos)
	}
	if chaos != nil && chaos.Seed != 0 {
		// The socket is wrapped, so the seed is set even when -chaos named
		// none; passing it back as seed=N replays this shard's fault draws.
		fmt.Fprintf(stderr, "chaos seed=%d\n", chaos.Seed)
	}
	if err != nil {
		return err
	}
	defer sh.Close()
	var tr congest.Transport = sh
	if roundDelay > 0 {
		tr = slowTransport{Transport: sh, delay: roundDelay}
	}

	var frag *core.Fragment
	if ck.resume {
		frag, err = core.ResumeShard(inst, cfg, spans[id], seed, image, tr, sink)
	} else {
		frag, err = core.SolveShardCheckpointed(inst, cfg, spans[id], seed, tr, sink)
	}
	if err != nil {
		return err
	}
	if err := sh.SendResult(frag.Encode(nil)); err != nil {
		return err
	}
	if ck.resume {
		fmt.Fprintf(stdout, "shard %d resumed from round %d, readmitted at round %d, done rounds=%d messages=%d\n",
			id, resumeRound, sh.AdmitRound(), frag.Stats.Rounds, frag.Stats.Messages)
	} else {
		fmt.Fprintf(stdout, "shard %d done rounds=%d messages=%d\n", id, frag.Stats.Rounds, frag.Stats.Messages)
	}
	return nil
}

// slowTransport stretches every round by a fixed pause so churn harnesses
// get a realistic window to kill processes mid-run.
type slowTransport struct {
	congest.Transport
	delay time.Duration
}

func (s slowTransport) Begin(round int) (congest.RoundStart, error) {
	time.Sleep(s.delay)
	return s.Transport.Begin(round)
}
