package core

import (
	"fmt"
	"reflect"
	"testing"

	"dfl/internal/congest"
)

// awakeNode runs the protocol node it wraps with its SleepUntil
// declarations withdrawn: after the inner Round it declares SleepUntil(0),
// which parks nothing, so the node runs every round it is live.
type awakeNode struct {
	congest.Node
	env *congest.Env
}

func (a *awakeNode) Init(env *congest.Env) {
	a.env = env
	a.Node.Init(env)
}

func (a *awakeNode) Round(r int, inbox []congest.Message) bool {
	halt := a.Node.Round(r, inbox)
	a.env.SleepUntil(0)
	return halt
}

func (a *awakeNode) Recover() { a.Node.(congest.Recoverable).Recover() }

// TestDenseEngineMatchesFrontier pins the protocol's dormancy declarations
// (the SleepUntil calls in nodes.go) as sound: the frontier scheduler must
// reproduce the dense execution, the same nodes kept awake every round,
// exactly, under honest, lossy, crash-with-recovery, and corrupt+byzantine
// schedules. Any node that oversleeps a round in which it would have
// changed state, sent, or drawn randomness shows up here as a diverging
// trace, report or node state.
//
// The awake run and the frontier-seq arm are observed and compared down
// to the per-round observer stream. An observer puts every run on the
// fault pipeline, so an unobserved frontier arm also runs, which on the
// honest schedule takes the plain merge.
func TestDenseEngineMatchesFrontier(t *testing.T) {
	inst := chaosInstance(t)
	cfg := Config{K: 16}

	schedules := []struct {
		name string
		opts []Option
	}{
		{name: "honest"},
		{name: "drop", opts: []Option{WithFaults(congest.Faults{DropProb: 0.3})}},
		{name: "crash_recover", opts: []Option{WithFaults(congest.Faults{
			CrashAtRound:   map[int]int{5: 11, 14: 13},
			RecoverAtRound: map[int]int{5: 23},
		})}},
		{name: "corrupt_byzantine", opts: []Option{WithFaults(congest.Faults{
			CorruptProb:        0.2,
			ByzantineFromRound: map[int]int{2: 0, 7: 0},
		})}},
	}

	type trace struct {
		sol        []int
		open       []bool
		report     Report
		facilities []FacilityState
		clients    []ClientState
		stream     []string
	}
	run := func(sc []Option, awake, observe bool) trace {
		r, err := newRun(inst, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if awake {
			for i, nd := range r.nodes {
				r.nodes[i] = &awakeNode{Node: nd}
			}
		}
		var tr trace
		opts := append([]Option{WithSeed(31)}, sc...)
		if observe {
			opts = append(opts, WithObserver(func(round int, delivered []congest.Message) {
				for _, m := range delivered {
					tr.stream = append(tr.stream, fmt.Sprintf("r%d %d>%d %x", round, m.From, m.To, m.Payload))
				}
			}))
		}
		rep, err := runProtocol(inst, r, opts)
		if err != nil {
			t.Fatal(err)
		}
		sol := settle(inst, rep, false, r.facility, r.client)
		rep.OpenFacilities, rep.Cost = sol.OpenCount(), sol.Cost(inst)
		if err := Certify(inst, sol, rep); err != nil {
			t.Fatal(err)
		}
		tr.sol, tr.open, tr.report = sol.Assign, sol.Open, *rep
		for i := range r.facilities {
			tr.facilities = append(tr.facilities, r.facility(i))
		}
		for j := range r.clients {
			tr.clients = append(tr.clients, r.client(j))
		}
		return tr
	}

	for _, sc := range schedules {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			dense := run(sc.opts, true, true)
			if len(dense.stream) == 0 {
				t.Fatal("schedule too tame: nothing observed")
			}
			check := func(label string, got trace, observed bool) {
				if !reflect.DeepEqual(got.sol, dense.sol) || !reflect.DeepEqual(got.open, dense.open) {
					t.Fatalf("%s: solution diverged from the awake run", label)
				}
				if !reflect.DeepEqual(got.report, dense.report) {
					t.Fatalf("%s: report diverged:\n%+v\n%+v", label, got.report, dense.report)
				}
				if !reflect.DeepEqual(got.facilities, dense.facilities) || !reflect.DeepEqual(got.clients, dense.clients) {
					t.Fatalf("%s: node states diverged from the awake run", label)
				}
				if observed && fmt.Sprint(got.stream) != fmt.Sprint(dense.stream) {
					t.Fatalf("%s: observer stream diverged (%d vs %d deliveries)",
						label, len(got.stream), len(dense.stream))
				}
			}
			check("frontier-seq", run(sc.opts, false, true), true)
			check("frontier-unobserved", run(sc.opts, false, false), false)
		})
	}
}
