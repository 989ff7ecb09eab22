package main

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"dfl/internal/congest"
	"dfl/internal/core"
	"dfl/internal/fl"
	"dfl/internal/gen"
	"dfl/internal/transport/udp"
)

// fleetSpec sizes the fleet workload: one loopback deployment per unit, a
// gateway plus shards in this process, each shard on its own UDP socket.
type fleetSpec struct {
	inst      gen.Uniform
	instances int // as in solveSpec
	k         int
	shards    int
}

func fleetWorkload(name string, cycle, minUnits int, spec fleetSpec) workload {
	return workload{name: name, cycle: cycle, minUnits: minUnits, setup: func(seed int64) (runner, error) {
		cfg := core.Config{K: spec.k}
		insts, d, err := generate(spec.inst, spec.instances, seed, cfg)
		if err != nil {
			return nil, err
		}
		return &fleetRunner{
			insts:   insts,
			cfg:     cfg,
			derived: d,
			spans:   congest.SplitSpans(spec.inst.M+spec.inst.NC, spec.shards),
			cycle:   cycle,
			ref:     make([]*outcome, cycle),
		}, nil
	}}
}

type fleetRunner struct {
	insts   []*fl.Instance
	cfg     core.Config
	derived core.Derived
	spans   []congest.Span
	cycle   int
	ref     []*outcome // in-process Solve per cycle slot, computed on first check
}

// interval is one timed call.
type interval struct {
	name       string
	start, end time.Time
}

func (iv interval) dur() time.Duration { return iv.end.Sub(iv.start) }

// shardTimes is what a traced unit records for one shard.
type shardTimes struct {
	dial, solve, result interval
	calls               []interval // transport calls in order
	beginWait, send     time.Duration
	gatherWait          time.Duration
	remote              int64 // messages handed to Send
	fenced              int64
}

// fleetTimes is what a traced unit records for the whole deployment.
type fleetTimes struct {
	shards                 []shardTimes
	gatewayRun             interval
	decode, assemble       interval
	fenced, rejected       int64
	start, end             time.Time
	derive, graph, certify interval
}

// timedTransport times every call one shard makes into its UDP transport.
type timedTransport struct {
	inner congest.Transport
	t     *shardTimes
}

func (tt *timedTransport) Begin(round int) (congest.RoundStart, error) {
	t0 := time.Now()
	rs, err := tt.inner.Begin(round)
	tt.record("udp.begin_wait", t0, &tt.t.beginWait)
	return rs, err
}

func (tt *timedTransport) Send(round int, msgs []congest.Message) error {
	t0 := time.Now()
	err := tt.inner.Send(round, msgs)
	tt.record("udp.send", t0, &tt.t.send)
	tt.t.remote += int64(len(msgs))
	return err
}

func (tt *timedTransport) Gather(round int, allHalted bool) ([]congest.Message, error) {
	t0 := time.Now()
	in, err := tt.inner.Gather(round, allHalted)
	tt.record("udp.gather_wait", t0, &tt.t.gatherWait)
	return in, err
}

func (tt *timedTransport) record(name string, t0 time.Time, total *time.Duration) {
	iv := interval{name, t0, time.Now()}
	tt.t.calls = append(tt.t.calls, iv)
	*total += iv.dur()
}

// unit runs one deployment and assembles its result. A traced unit also
// times, as separate calls, the Derive and graph build every shard runs
// inside SolveShard, and a Certify of the assembled solution.
func (f *fleetRunner) unit(i int, tr *unitTrace) (outcome, error) {
	inst, seed := f.slot(i)
	var ft *fleetTimes
	if tr != nil {
		ft = &fleetTimes{}
		t0 := time.Now()
		if _, err := core.Derive(inst, f.cfg); err != nil {
			return outcome{}, err
		}
		t1 := time.Now()
		if _, err := instanceGraph(inst); err != nil {
			return outcome{}, err
		}
		ft.derive, ft.graph = interval{"core.derive", t0, t1}, interval{"congest.graph_build", t1, time.Now()}
	}
	wire, local, err := f.deploy(inst, seed, ft)
	if err != nil {
		return outcome{}, err
	}
	out, err := f.assemble(inst, wire, ft)
	if err != nil || tr == nil {
		return out, err
	}
	t0 := time.Now()
	if err := core.Certify(inst, out.sol, out.rep); err != nil {
		return outcome{}, err
	}
	ft.certify = interval{"core.certify", t0, time.Now()}
	return out, f.traceLayers(tr, ft, local)
}

// slot returns unit i's instance and protocol seed.
func (f *fleetRunner) slot(i int) (*fl.Instance, int64) {
	c := i % f.cycle
	return f.insts[c%len(f.insts)], int64(c)
}

// deploy runs one fault-free deployment on loopback: a gateway and one
// goroutine per shard, each dialing its own socket, running SolveShard and
// shipping its fragment. It returns the fragment bytes the gateway
// collected, by shard, and the fragments as the shards built them, whose
// activity counts the wire form does not carry.
func (f *fleetRunner) deploy(inst *fl.Instance, seed int64, ft *fleetTimes) ([][]byte, []*core.Fragment, error) {
	k := len(f.spans)
	start := time.Now()
	gw, err := udp.NewGateway("127.0.0.1:0", f.spans, udp.Config{})
	if err != nil {
		return nil, nil, err
	}
	local := make([]*core.Fragment, k)
	errs := make([]error, k)
	var times []shardTimes
	if ft != nil {
		ft.start = start
		times = make([]shardTimes, k)
	}
	var wg sync.WaitGroup
	for s := 0; s < k; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			var st *shardTimes
			if times != nil {
				st = &times[s]
			}
			local[s], errs[s] = f.runShard(inst, s, seed, gw.Addr(), st)
		}(s)
	}
	g0 := time.Now()
	res, err := gw.Run(f.derived.TotalRounds + 8)
	g1 := time.Now()
	wg.Wait()
	gw.Close()
	if err != nil {
		return nil, nil, fmt.Errorf("gateway: %w", err)
	}
	if err := errors.Join(errs...); err != nil {
		return nil, nil, err
	}
	if ft != nil {
		ft.shards = times
		ft.gatewayRun = interval{"udp.gateway_run", g0, g1}
		ft.fenced, ft.rejected = res.Fenced, res.Rejected
		for _, st := range times {
			ft.fenced += st.fenced
		}
	}
	return res.Fragments, local, nil
}

// runShard is one shard's life in a deployment.
func (f *fleetRunner) runShard(inst *fl.Instance, s int, seed int64, gateway string, st *shardTimes) (*core.Fragment, error) {
	d0 := time.Now()
	sh, err := udp.Dial(s, len(f.spans), gateway, udp.Config{}, nil)
	if err != nil {
		return nil, err
	}
	defer sh.Close()
	var tr congest.Transport = sh
	if st != nil {
		st.dial = interval{"udp.dial", d0, time.Now()}
		tr = &timedTransport{inner: sh, t: st}
	}
	q0 := time.Now()
	frag, err := core.SolveShard(inst, f.cfg, f.spans[s], seed, tr)
	q1 := time.Now()
	if err != nil {
		return nil, err
	}
	if err := sh.SendResult(frag.Encode(nil)); err != nil {
		return nil, err
	}
	if st != nil {
		st.solve = interval{"core.solve_shard", q0, q1}
		st.result = interval{"udp.result", q1, time.Now()}
		st.fenced = sh.Fenced()
	}
	return frag, nil
}

// assemble decodes the collected fragments as a coordinator would, from
// the wire bytes alone, and assembles and certifies the global solution.
func (f *fleetRunner) assemble(inst *fl.Instance, wire [][]byte, ft *fleetTimes) (outcome, error) {
	t0 := time.Now()
	frags := make([]*core.Fragment, len(wire))
	for s, p := range wire {
		if p == nil {
			return outcome{}, fmt.Errorf("shard %d delivered no fragment", s)
		}
		frag, err := core.DecodeFragment(p, inst.M(), inst.NC())
		if err != nil {
			return outcome{}, fmt.Errorf("shard %d: %w", s, err)
		}
		frags[s] = frag
	}
	t1 := time.Now()
	sol, rep, err := core.Assemble(inst, f.cfg, frags)
	t2 := time.Now()
	if err != nil {
		return outcome{}, err
	}
	if ft != nil {
		ft.decode = interval{"core.decode_fragment", t0, t1}
		ft.assemble = interval{"core.assemble", t1, t2}
		ft.end = t2
	}
	return solveOutcome(sol, rep), nil
}

// traceLayers turns a traced deployment's timings into spans and
// per-layer values. Shard-level values are means over the shards; the
// round phases come from shard 0, whose Begin calls mark the round
// boundaries: init runs from SolveShard's start to round 1's Begin, less
// the separately timed Derive and graph build.
func (f *fleetRunner) traceLayers(tr *unitTrace, ft *fleetTimes, local []*core.Fragment) error {
	var begins []interval
	for _, c := range ft.shards[0].calls {
		if c.name == "udp.begin_wait" {
			begins = append(begins, c)
		}
	}
	p, last := f.derived.ProtoRounds, len(begins)-1
	if last < p {
		return fmt.Errorf("shard 0 began %d rounds, protocol sweep alone has %d", len(begins), p)
	}
	wall := ft.end.Sub(ft.start)
	tr.wall = wall
	frac := func(d time.Duration) float64 { return d.Seconds() / wall.Seconds() }

	add := func(iv interval, parent int) int { return tr.span(iv.name, parent, iv.start, iv.end) }
	root := tr.span("unit", -1, ft.derive.start, ft.certify.end)
	add(ft.derive, root)
	add(ft.graph, root)
	deploy := tr.span("fleet.deploy", root, ft.start, ft.end)
	add(ft.gatewayRun, deploy)
	add(ft.decode, root)
	add(ft.assemble, root)
	add(ft.certify, root)
	var dial, bw, send, gw, compute, result time.Duration
	var bwMax time.Duration
	var remote int64
	var net congest.Stats
	for s, st := range ft.shards {
		shard := tr.span(fmt.Sprintf("udp.shard%d", s), deploy, st.dial.start, st.result.end)
		add(st.dial, shard)
		solve := add(st.solve, shard)
		for _, c := range st.calls {
			add(c, solve)
		}
		add(st.result, shard)
		dial += st.dial.dur()
		bw += st.beginWait
		bwMax = max(bwMax, st.beginWait)
		send += st.send
		gw += st.gatherWait
		compute += st.solve.dur() - st.beginWait - st.send - st.gatherWait
		result += st.result.dur()
		remote += st.remote
		n := local[s].Stats
		net.Rounds = max(net.Rounds, n.Rounds)
		net.Messages += n.Messages
		net.LiveNodeRounds += n.LiveNodeRounds
		net.Senders += n.Senders
	}
	k := time.Duration(len(ft.shards))

	init, overrun := splitRemainder(begins[1].start.Sub(ft.shards[0].solve.start), ft.derive.dur()+ft.graph.dur())
	tr.set("congest.graph_build_s", ft.graph.dur().Seconds())
	tr.set("congest.init_s", init.Seconds())
	tr.set("congest.sweep_s", begins[p].start.Sub(begins[1].start).Seconds())
	tr.set("congest.tail_s", begins[last].start.Sub(begins[p].start).Seconds())
	starts := make([]time.Time, 0, last)
	for _, b := range begins[1:] {
		starts = append(starts, b.start)
	}
	tr.roundTimes(starts)
	tr.netStats(net)
	tr.set("core.derive_frac", frac(ft.derive.dur()))
	tr.set("core.finish_frac", frac(ft.shards[0].solve.end.Sub(begins[last].end)))
	tr.set("core.certify_frac", frac(ft.certify.dur()))
	tr.set("core.decode_fragment_frac", frac(ft.decode.dur()))
	tr.set("core.assemble_frac", frac(ft.assemble.dur()))
	tr.set("udp.dial_frac", frac(dial/k))
	tr.set("udp.begin_wait_frac", frac(bw/k))
	tr.set("udp.begin_wait_max_frac", frac(bwMax))
	tr.set("udp.send_frac", frac(send/k))
	tr.set("udp.gather_wait_frac", frac(gw/k))
	tr.set("udp.compute_frac", frac(compute/k))
	tr.set("udp.result_frac", frac(result/k))
	tr.set("udp.gateway_run_frac", frac(ft.gatewayRun.dur()))
	if net.Rounds > 0 {
		tr.set("udp.remote_msgs_per_round", float64(remote)/float64(net.Rounds))
	}
	tr.set("udp.fenced", float64(ft.fenced))
	tr.set("udp.rejected", float64(ft.rejected))
	covered := ft.gatewayRun.dur() + ft.decode.dur() + ft.assemble.dur()
	tr.set("trace.unattributed_frac", frac(max(wall-covered, 0)+overrun))
	return nil
}

// check certifies the assembled solution and compares it with the
// in-process Solve on the same instance and seed: a fault-free deployment
// must reproduce it exactly. The reference is computed outside the timed
// window, the first time each slot is checked.
func (f *fleetRunner) check(i int, out outcome) error {
	inst, seed := f.slot(i)
	if err := core.Certify(inst, out.sol, out.rep); err != nil {
		return err
	}
	slot := i % f.cycle
	if f.ref[slot] == nil {
		sol, rep, err := core.Solve(inst, f.cfg, core.WithSeed(seed))
		if err != nil {
			return fmt.Errorf("in-process reference: %w", err)
		}
		ref := solveOutcome(sol, rep)
		f.ref[slot] = &ref
	}
	if err := sameOutcome(out, *f.ref[slot]); err != nil {
		return fmt.Errorf("deployment differs from in-process Solve: %w", err)
	}
	return nil
}
