package congest

import (
	"bytes"
	"fmt"
	"os/exec"
	"slices"
	"sync"
	"testing"
	"unsafe"
)

// TestDeliverStaysInlined guards the cost of the engine's per-message
// path: span.deliver runs once per delivered message on every runner, and
// losing its inlining slows the all-broadcast engine workloads by about a
// quarter without changing any result. The inbox sizing check therefore
// sits at deliver's call sites (span.reserve), not inside it.
func TestDeliverStaysInlined(t *testing.T) {
	gobin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go binary on PATH")
	}
	out, err := exec.Command(gobin, "build", "-gcflags=-m", ".").CombinedOutput()
	if err != nil {
		t.Fatalf("go build -gcflags=-m: %v\n%s", err, out)
	}
	if !bytes.Contains(out, []byte("can inline (*span).deliver")) {
		t.Fatalf("(*span).deliver is no longer inlinable; compiler output:\n%s", out)
	}
}

// inboxProbe sends to a random subset of its neighbours, in a random
// order, every round until stopAt, and records each inbox as its Round
// call sees it: the messages, and the address range of the backing array.
type inboxProbe struct {
	env    *Env
	stopAt int
	seen   []inboxSeen
}

type inboxSeen struct {
	round    int
	msgs     string // "from:payload" per message, in inbox order
	len, cap int
	base     uintptr
}

func (p *inboxProbe) Init(env *Env) { p.env = env }

func (p *inboxProbe) Round(r int, inbox []Message) bool {
	var b bytes.Buffer
	for _, m := range inbox {
		fmt.Fprintf(&b, "%d:%x ", m.From, m.Payload)
	}
	p.seen = append(p.seen, inboxSeen{round: r, msgs: b.String(), len: len(inbox), cap: cap(inbox), base: uintptr(unsafe.Pointer(unsafe.SliceData(inbox)))})
	if r >= p.stopAt {
		return true
	}
	rng := p.env.Rand()
	nbrs := slices.Clone(p.env.Neighbors())
	rng.Shuffle(len(nbrs), func(a, b int) { nbrs[a], nbrs[b] = nbrs[b], nbrs[a] })
	for _, v := range nbrs {
		if rng.Intn(4) != 0 {
			p.env.Send(int(v), []byte{byte(p.env.ID()), byte(r), byte(v)})
		}
	}
	return false
}

func newInboxProbes(n, stopAt int) ([]Node, []*inboxProbe) {
	nodes := make([]Node, n)
	probes := make([]*inboxProbe, n)
	for i := range nodes {
		probes[i] = &inboxProbe{stopAt: stopAt}
		nodes[i] = probes[i]
	}
	return nodes, probes
}

// TestInboxSlabIsolation runs a schedule heavy with duplicated and delayed
// traffic, so that some inboxes receive more than Degree messages in one
// round. Such an inbox must spill to a private allocation: within every
// round no two inboxes share memory, and every inbox, as its Round call
// sees it, holds exactly the messages the Observer reported delivered to
// that node (stably sorted by sender, which is how delayed arrivals
// settle). An inbox that has not spilled yet has exactly Degree capacity.
func TestInboxSlabIsolation(t *testing.T) {
	const stopAt = 10
	for _, parallel := range []bool{false, true} {
		t.Run(fmt.Sprintf("parallel=%v", parallel), func(t *testing.T) {
			g := stressGraph(t)
			n := g.N()
			nodes, probes := newInboxProbes(n, stopAt)
			// delivered[r][v] lists what the merge of round r delivered to v.
			delivered := make([][][]Message, stopAt)
			cfg := Config{
				Seed: 3, Parallel: parallel, Shards: 2,
				Faults: Faults{DupProb: 0.6, DelayProb: 0.2, MaxDelay: 2},
				Observer: func(r int, msgs []Message) {
					if r >= stopAt {
						return
					}
					delivered[r] = make([][]Message, n)
					for _, m := range msgs {
						m.Payload = slices.Clone(m.Payload)
						delivered[r][m.To] = append(delivered[r][m.To], m)
					}
				},
			}
			if _, err := Run(g, nodes, cfg); err != nil {
				t.Fatal(err)
			}
			spills := 0
			ranges := make([][]inboxSeen, stopAt+1)
			for v, p := range probes {
				spilled := false
				for _, s := range p.seen {
					if s.round > 0 {
						want := slices.Clone(delivered[s.round-1][v])
						slices.SortStableFunc(want, func(a, b Message) int { return int(a.From) - int(b.From) })
						var b bytes.Buffer
						for _, m := range want {
							fmt.Fprintf(&b, "%d:%x ", m.From, m.Payload)
						}
						if s.msgs != b.String() {
							t.Fatalf("node %d round %d: inbox %q, observer delivered %q", v, s.round, s.msgs, b.String())
						}
					}
					if s.len > g.Degree(v) && !spilled {
						spilled = true
						spills++
					}
					if !spilled && s.cap != 0 && s.cap != g.Degree(v) {
						t.Fatalf("node %d round %d: inbox capacity %d before any overflow, want Degree %d", v, s.round, s.cap, g.Degree(v))
					}
					if s.cap > 0 {
						ranges[s.round] = append(ranges[s.round], s)
					}
				}
			}
			if spills == 0 {
				t.Fatal("no inbox received more than Degree messages in a round; the schedule does not exercise overflow")
			}
			size := unsafe.Sizeof(Message{})
			for r, rs := range ranges {
				slices.SortFunc(rs, func(a, b inboxSeen) int { return int(a.base - b.base) })
				for k := 1; k < len(rs); k++ {
					if end := rs[k-1].base + uintptr(rs[k-1].cap)*size; end > rs[k].base {
						t.Fatalf("round %d: inboxes %x (cap %d) and %x share memory", r, rs[k-1].base, rs[k-1].cap, rs[k].base)
					}
				}
			}
		})
	}
}

// TestFaultFreeInboxesHaveDegreeCapacity checks the sizing itself: in a
// fault-free run no inbox ever grows past the region its first delivery
// carved, so every inbox a node sees has capacity exactly Degree, on every
// runner.
func TestFaultFreeInboxesHaveDegreeCapacity(t *testing.T) {
	const stopAt = 6
	check := func(t *testing.T, g *Graph, probes []*inboxProbe) {
		t.Helper()
		received := 0
		for v, p := range probes {
			for _, s := range p.seen {
				if s.cap != 0 && s.cap != g.Degree(v) {
					t.Fatalf("node %d round %d: inbox capacity %d, want Degree %d", v, s.round, s.cap, g.Degree(v))
				}
				received += s.len
			}
		}
		if received == 0 {
			t.Fatal("no message was delivered")
		}
	}
	for _, cfg := range []Config{{Seed: 4}, {Seed: 4, Dense: true}, {Seed: 4, Parallel: true, Shards: 3}} {
		t.Run(fmt.Sprintf("dense=%v/parallel=%v", cfg.Dense, cfg.Parallel), func(t *testing.T) {
			g := stressGraph(t)
			nodes, probes := newInboxProbes(g.N(), stopAt)
			if _, err := Run(g, nodes, cfg); err != nil {
				t.Fatal(err)
			}
			check(t, g, probes)
		})
	}
	t.Run("RunShard", func(t *testing.T) {
		g := stressGraph(t)
		g.Finalize()
		n := g.N()
		nodes, probes := newInboxProbes(n, stopAt)
		spans := SplitSpans(n, 3)
		net, err := NewChanNetwork(n, spans)
		if err != nil {
			t.Fatal(err)
		}
		errs := make([]error, len(spans))
		var wg sync.WaitGroup
		for si, sp := range spans {
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, errs[si] = RunShard(g, nodes, sp, Config{Seed: 4}, net.Shard(si))
				if errs[si] != nil {
					net.Abort(errs[si])
				}
			}()
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
		check(t, g, probes)
	})
}

// inboxLogger logs every inbox it sees and, unless it is a listener,
// sends each neighbour a payload naming sender, round and recipient every
// round until stopAt. Nothing it sends depends on what it received, so a
// listener's crash changes no other node's inboxes.
type inboxLogger struct {
	env      *Env
	listener bool
	stopAt   int
	log      []string
}

func (l *inboxLogger) Init(env *Env) { l.env = env }
func (l *inboxLogger) Recover()      { l.log = append(l.log, "recover") }

func (l *inboxLogger) Round(r int, inbox []Message) bool {
	l.log = append(l.log, fmt.Sprintf("%d:%v", r, inbox))
	if r >= l.stopAt {
		return true
	}
	if !l.listener {
		for _, v := range l.env.Neighbors() {
			l.env.Send(int(v), []byte{byte(l.env.ID()), byte(r), byte(v)})
		}
	}
	return false
}

// TestHaltedRecipientGetsNoInbox crashes two listeners while their
// neighbours keep sending to them and brings them back with
// RecoverAtRound. Inbox regions are reused every round, so a region
// carved for a halted recipient — whose messages are dropped, so the next
// merge does not clear its inbox — would still be its inbox when it
// recovers, and would alias whichever inbox is carved there that round.
// Each listener's inbox in its recovery round must be empty (everything
// sent while it was down is lost), its later ones must hold exactly the
// previous round's messages, and no other node's inbox may differ from a
// run without the crash, on every runner.
func TestHaltedRecipientGetsNoInbox(t *testing.T) {
	const stopAt, crashAt, recoverAt = 12, 3, 7
	listeners := []int{0, 13}
	run := func(t *testing.T, cfg Config) [][]string {
		g := stressGraph(t)
		loggers := make([]*inboxLogger, g.N())
		nodes := make([]Node, g.N())
		for i := range nodes {
			loggers[i] = &inboxLogger{listener: slices.Contains(listeners, i), stopAt: stopAt}
			nodes[i] = loggers[i]
		}
		if _, err := Run(g, nodes, cfg); err != nil {
			t.Fatal(err)
		}
		logs := make([][]string, len(loggers))
		for i, l := range loggers {
			logs[i] = l.log
		}
		return logs
	}
	for _, cfg := range []Config{{Seed: 5}, {Seed: 5, Dense: true}, {Seed: 5, Parallel: true, Shards: 2}} {
		t.Run(fmt.Sprintf("dense=%v/parallel=%v", cfg.Dense, cfg.Parallel), func(t *testing.T) {
			ref := run(t, cfg)
			cfg.Faults = Faults{CrashAtRound: map[int]int{}, RecoverAtRound: map[int]int{}}
			for _, v := range listeners {
				cfg.Faults.CrashAtRound[v], cfg.Faults.RecoverAtRound[v] = crashAt, recoverAt
			}
			got := run(t, cfg)
			for v := range ref {
				want := ref[v]
				if slices.Contains(listeners, v) {
					want = slices.Concat(ref[v][:crashAt], []string{"recover", fmt.Sprintf("%d:[]", recoverAt)}, ref[v][recoverAt+1:])
				}
				if !slices.Equal(got[v], want) {
					t.Fatalf("node %d inboxes\n got %q\nwant %q", v, got[v], want)
				}
			}
		})
	}
}
