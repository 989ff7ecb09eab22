package main

import (
	"fmt"
	"time"

	"dfl/internal/congest"
	"dfl/internal/core"
	"dfl/internal/fl"
	"dfl/internal/gen"
)

// workloads is the benchmark's registry, in BENCHMARK.json order; doc.go
// gives the reason for each.
func workloads() []workload {
	return []workload{
		solveWorkload("solve_mid", 4, 5, solveSpec{
			inst: gen.Uniform{M: 800, NC: 6400, Density: 0.2, MinDegree: 3}, instances: 1, k: 16}),
		solveWorkload("solve_large", 2, 4, solveSpec{
			inst: gen.Uniform{M: 100, NC: 125_000, Density: 0.03, MinDegree: 2}, instances: 1, k: 4}),
		solveWorkload("solve_chaos", 100, 100, solveSpec{
			inst: gen.Uniform{M: 40, NC: 200, Density: 0.3, MinDegree: 2}, instances: 100, k: 16, chaos: true}),
		engineWorkload("engine_dense", 20, engineSpec{n: 4096, stride: 1, rounds: 100, shards: 2}),
		engineWorkload("engine_sparse", 8, engineSpec{n: 1_000_000, stride: 1000, rounds: 500}),
		fleetWorkload("fleet_udp", 4, 20, fleetSpec{
			inst: gen.Uniform{M: 200, NC: 4000, Density: 0.05, MinDegree: 2}, instances: 4, k: 16, shards: 2}),
	}
}

// findWorkload returns the registered workload called name.
func findWorkload(name string) (workload, error) {
	for _, w := range workloads() {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// solveSpec sizes a solve workload: one core.Solve per unit with the
// default sequential runner.
type solveSpec struct {
	inst gen.Uniform
	// instances is how many instances of that shape a run builds from its
	// seed; it divides the cycle, and slot c solves instance c%instances.
	// Small instances differ enough in the work they take that one per run
	// would make the run's timings depend on the seed more than on the code.
	instances int
	k         int
	// chaos runs every unit under drops, duplicates and two facility
	// crashes, with the reliable-delivery shim underneath.
	chaos bool
}

func solveWorkload(name string, cycle, minUnits int, spec solveSpec) workload {
	return workload{name: name, cycle: cycle, minUnits: minUnits, setup: func(seed int64) (runner, error) {
		cfg := core.Config{K: spec.k}
		insts, d, err := generate(spec.inst, spec.instances, seed, cfg)
		if err != nil {
			return nil, err
		}
		s := &solveRunner{insts: insts, cfg: cfg, cycle: cycle, protoRounds: d.ProtoRounds, ref: make([]*outcome, cycle)}
		if spec.chaos {
			s.opts = []core.Option{
				core.WithFaults(congest.Faults{
					DropProb:     0.2,
					DupProb:      0.1,
					CrashAtRound: map[int]int{0: 5, 1: 9},
				}),
				core.WithReliableDelivery(2),
			}
		}
		return s, nil
	}}
}

// generate builds n instances of shape u from the run seed and derives the
// protocol parameters, which depend on the shape and cfg alone.
func generate(u gen.Uniform, n int, seed int64, cfg core.Config) ([]*fl.Instance, core.Derived, error) {
	insts := make([]*fl.Instance, n)
	for k := range insts {
		inst, err := u.Generate(seed*int64(n) + int64(k))
		if err != nil {
			return nil, core.Derived{}, err
		}
		insts[k] = inst
	}
	d, err := core.Derive(insts[0], cfg)
	return insts, d, err
}

type solveRunner struct {
	insts       []*fl.Instance
	cfg         core.Config
	opts        []core.Option
	cycle       int
	protoRounds int
	ref         []*outcome // first checked outcome per cycle slot
}

// slot returns unit i's instance and Solve options: its protocol seed,
// the workload's fault settings, then extra.
func (s *solveRunner) slot(i int, extra ...core.Option) (*fl.Instance, []core.Option) {
	c := i % s.cycle
	opts := append([]core.Option{core.WithSeed(int64(c))}, s.opts...)
	return s.insts[c%len(s.insts)], append(opts, extra...)
}

func (s *solveRunner) unit(i int, tr *unitTrace) (outcome, error) {
	if tr != nil {
		return s.tracedUnit(i, tr)
	}
	inst, opts := s.slot(i)
	sol, rep, err := core.Solve(inst, s.cfg, opts...)
	if err != nil {
		return outcome{}, err
	}
	return solveOutcome(sol, rep), nil
}

func solveOutcome(sol *fl.Solution, rep *core.Report) outcome {
	return outcome{rounds: rep.Net.Rounds, messages: rep.Net.Messages, cost: rep.Cost, sol: sol, rep: rep}
}

// tracedUnit runs one Solve with a round observer and times, as separate
// calls around it, the Derive and graph build that Solve runs internally
// and the Certify it ends with. The observer stamps the end of every
// round, which splits the Solve into its phases:
//
//	init   Solve start to the end of round 0, minus the separately timed
//	       Derive and graph build: node construction, env layout, Init
//	       and round 0
//	sweep  rounds 1 .. ProtoRounds-1, the paper's phase sweep
//	tail   rounds ProtoRounds .. end, the cleanup and repair tail
//	finish the end of the last round to return: masking, cost, certify
func (s *solveRunner) tracedUnit(i int, tr *unitTrace) (outcome, error) {
	var ends []time.Time
	observe := core.WithObserver(func(int, []congest.Message) { ends = append(ends, time.Now()) })
	inst, opts := s.slot(i, observe)
	t0 := time.Now()
	if _, err := core.Derive(inst, s.cfg); err != nil {
		return outcome{}, err
	}
	t1 := time.Now()
	if _, err := instanceGraph(inst); err != nil {
		return outcome{}, err
	}
	t2 := time.Now()
	sol, rep, err := core.Solve(inst, s.cfg, opts...)
	t3 := time.Now()
	if err != nil {
		return outcome{}, err
	}
	if err := core.Certify(inst, sol, rep); err != nil {
		return outcome{}, err
	}
	t4 := time.Now()
	p, last := s.protoRounds, len(ends)-1
	if last < p {
		return outcome{}, fmt.Errorf("observed %d rounds, protocol sweep alone has %d", len(ends), p)
	}

	root := tr.span("unit", -1, t0, t4)
	tr.span("core.derive", root, t0, t1)
	tr.span("congest.graph_build", root, t1, t2)
	solve := tr.span("core.solve", root, t2, t3)
	tr.span("congest.init", solve, t2, ends[0])
	tr.span("congest.sweep", solve, ends[0], ends[p-1])
	tr.span("congest.tail", solve, ends[p-1], ends[last])
	tr.span("core.finish", solve, ends[last], t3)
	tr.span("core.certify", root, t3, t4)

	derive, graph := t1.Sub(t0), t2.Sub(t1)
	init, overrun := splitRemainder(ends[0].Sub(t2), derive+graph)
	tr.wall = t3.Sub(t2)
	wall := tr.wall.Seconds()
	tr.set("congest.graph_build_s", graph.Seconds())
	tr.set("congest.init_s", init.Seconds())
	tr.set("congest.sweep_s", ends[p-1].Sub(ends[0]).Seconds())
	tr.set("congest.tail_s", ends[last].Sub(ends[p-1]).Seconds())
	tr.set("core.derive_frac", derive.Seconds()/wall)
	tr.set("core.finish_frac", t3.Sub(ends[last]).Seconds()/wall)
	tr.set("core.certify_frac", t4.Sub(t3).Seconds()/wall)
	tr.set("trace.unattributed_frac", overrun.Seconds()/wall)
	tr.roundTimes(ends)
	tr.netStats(rep.Net)
	tr.set("core.repaired_clients", float64(rep.RepairedClients))
	return solveOutcome(sol, rep), nil
}

// splitRemainder subtracts the separately timed parts from an interval
// that contains them. If the estimates overrun the interval, the
// remainder is 0 and the overrun is returned as unattributed time.
func splitRemainder(interval, parts time.Duration) (rest, overrun time.Duration) {
	if parts > interval {
		return 0, parts - interval
	}
	return interval - parts, 0
}

func (s *solveRunner) check(i int, out outcome) error {
	inst, _ := s.slot(i)
	if err := core.Certify(inst, out.sol, out.rep); err != nil {
		return err
	}
	slot := i % s.cycle
	if s.ref[slot] == nil {
		s.ref[slot] = &out
		return nil
	}
	return sameOutcome(out, *s.ref[slot])
}

// sameOutcome reports how got differs from want: the solution (open set
// and assignment), its cost, or the rounds and messages it took.
func sameOutcome(got, want outcome) error {
	if got.cost != want.cost || got.rounds != want.rounds || got.messages != want.messages {
		return fmt.Errorf("cost/rounds/messages %d/%d/%d, want %d/%d/%d",
			got.cost, got.rounds, got.messages, want.cost, want.rounds, want.messages)
	}
	for i := range want.sol.Open {
		if got.sol.Open[i] != want.sol.Open[i] {
			return fmt.Errorf("facility %d open=%v, want %v", i, got.sol.Open[i], want.sol.Open[i])
		}
	}
	for j := range want.sol.Assign {
		if got.sol.Assign[j] != want.sol.Assign[j] {
			return fmt.Errorf("client %d assigned to %d, want %d", j, got.sol.Assign[j], want.sol.Assign[j])
		}
	}
	return nil
}

// instanceGraph builds inst's communication graph the way Solve does:
// facility i is node i, client j is node m+j.
func instanceGraph(inst *fl.Instance) (*congest.Graph, error) {
	m := inst.M()
	return congest.Bipartite(m, inst.NC(), func(yield func(i, j int) bool) {
		for i := 0; i < m; i++ {
			for _, e := range inst.FacilityEdges(i) {
				if !yield(i, e.To) {
					return
				}
			}
		}
	})
}

// engineSpec sizes an engine workload: one congest.Run of the pulse
// protocol per unit on a degree-8 circulant graph.
type engineSpec struct {
	n      int
	stride int // every stride-th node broadcasts; 1 makes every node do so
	rounds int
	shards int // 0 runs the sequential runner
}

func engineWorkload(name string, minUnits int, spec engineSpec) workload {
	return workload{name: name, cycle: 1, minUnits: minUnits, setup: func(seed int64) (runner, error) {
		t0 := time.Now()
		g := congest.NewGraph(spec.n)
		for u := 0; u < spec.n; u++ {
			for d := 1; d <= 4; d++ {
				if err := g.AddEdge(u, (u+d)%spec.n); err != nil {
					return nil, err
				}
			}
		}
		if err := g.FinalizeChecked(); err != nil {
			return nil, err
		}
		e := &engineRunner{g: g, graphBuild: time.Since(t0), nodes: make([]congest.Node, spec.n)}
		for i := range e.nodes {
			e.nodes[i] = &pulseNode{hot: i%spec.stride == 0, rounds: spec.rounds}
		}
		e.probe = e.nodes[0].(*pulseNode)
		e.cfg = congest.Config{Seed: seed, Parallel: spec.shards > 0, Shards: spec.shards}
		// The closed form of a run: the hot nodes broadcast a 2-byte
		// payload to 8 neighbours in rounds 0..R-1, every node stays live
		// until all halt in round R, and nothing is lost or retried.
		hot := int64((spec.n + spec.stride - 1) / spec.stride)
		r := int64(spec.rounds)
		e.want = congest.Stats{
			Rounds:         spec.rounds + 1,
			Messages:       hot * 8 * r,
			Bits:           hot * 8 * r * 16,
			MaxMessageBits: 16,
			Senders:        hot * r,
			LiveNodeRounds: int64(spec.n) * (r + 1),
		}
		return e, nil
	}}
}

// pulseNode is the engine workloads' protocol. A hot node broadcasts every
// round until the halt round; the others declare themselves dormant until
// then, so the frontier scheduler skips them except when a delivery wakes
// them. With every node hot it is a pure broadcast chatter.
type pulseNode struct {
	env    *congest.Env
	hot    bool
	rounds int
	// stamps, set on node 0 during a traced unit, records when each round
	// reaches the node.
	stamps *[]time.Time
}

func (n *pulseNode) Init(env *congest.Env) { n.env = env }

func (n *pulseNode) Round(r int, _ []congest.Message) bool {
	if n.stamps != nil {
		*n.stamps = append(*n.stamps, time.Now())
	}
	if r >= n.rounds {
		return true
	}
	if n.hot {
		n.env.Broadcast([]byte{byte(r), byte(r >> 8)})
		return false
	}
	n.env.SleepUntil(n.rounds)
	return false
}

type engineRunner struct {
	g          *congest.Graph
	graphBuild time.Duration
	nodes      []congest.Node
	probe      *pulseNode
	cfg        congest.Config
	want       congest.Stats
}

// unit runs the protocol once on the frozen graph; Init rebinds the reused
// nodes to fresh envs. A traced unit stamps node 0's rounds, which the
// engine runs first in every round, and splits the run into init (env
// layout, Init and round 0), sweep (rounds 1..R-1) and tail (the halt
// round, where every sleeper wakes, and the return).
func (e *engineRunner) unit(_ int, tr *unitTrace) (outcome, error) {
	var stamps []time.Time
	if tr != nil {
		stamps = make([]time.Time, 0, e.want.Rounds)
		e.probe.stamps = &stamps
		defer func() { e.probe.stamps = nil }()
	}
	t0 := time.Now()
	st, err := congest.Run(e.g, e.nodes, e.cfg)
	t1 := time.Now()
	if err != nil {
		return outcome{}, err
	}
	out := outcome{rounds: st.Rounds, messages: st.Messages, stats: st}
	if tr == nil {
		return out, nil
	}
	last := len(stamps) - 1
	if last < 2 {
		return outcome{}, fmt.Errorf("node 0 ran %d rounds, want at least 3", len(stamps))
	}
	tr.wall = t1.Sub(t0)
	root := tr.span("congest.run", -1, t0, t1)
	tr.span("congest.init", root, t0, stamps[1])
	tr.span("congest.sweep", root, stamps[1], stamps[last])
	tr.span("congest.tail", root, stamps[last], t1)
	tr.set("congest.graph_build_s", e.graphBuild.Seconds())
	tr.set("congest.init_s", stamps[1].Sub(t0).Seconds())
	tr.set("congest.sweep_s", stamps[last].Sub(stamps[1]).Seconds())
	tr.set("congest.tail_s", t1.Sub(stamps[last]).Seconds())
	tr.roundTimes(stamps[1:])
	tr.netStats(st)
	return out, nil
}

func (e *engineRunner) check(_ int, out outcome) error {
	if out.stats != e.want {
		return fmt.Errorf("stats %+v do not match the closed form %+v", out.stats, e.want)
	}
	return nil
}
