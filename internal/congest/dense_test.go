package congest

import (
	"fmt"
	"slices"
)

// awakeNode runs the node it wraps with its SleepUntil declarations
// withdrawn: after the inner Round it declares SleepUntil(0), which parks
// nothing, so the same nodes run every live round on the one frontier
// scheduler. A frontier run that skips declared no-op rounds must
// reproduce the awake run byte for byte; an unsound declaration shows as a
// diverging log or Stats.
type awakeNode struct {
	Node
	env *Env
}

func (a *awakeNode) Init(env *Env) {
	a.env = env
	a.Node.Init(env)
}

func (a *awakeNode) Round(r int, inbox []Message) bool {
	halt := a.Node.Round(r, inbox)
	a.env.SleepUntil(0)
	return halt
}

func (a *awakeNode) Recover() { a.Node.(Recoverable).Recover() }

// awake wraps every node in an awakeNode.
func awake(nodes []Node) []Node {
	out := make([]Node, len(nodes))
	for i, nd := range nodes {
		out[i] = &awakeNode{Node: nd}
	}
	return out
}

// runDense is the dense reference executor of a fault-free run. Every
// round it runs every live node in ascending id order, ignoring SleepUntil;
// then, walking the nodes that ran in id order, it counts their output into
// its own Stats, expands broadcast records over Graph.Neighbors and appends
// a copy of every message to a freshly allocated inbox. Of the engine it
// uses only newNodeSet, which lays out the Envs and initializes the nodes,
// and the Env the nodes stage through: no span, frontier, merge, drain,
// delivery or inbox reuse. A frontier run pinned against it therefore
// checks the frontier's active, sender and recipient lists, and the
// engine's own accounting.
func runDense(g *Graph, nodes []Node, cfg Config) (Stats, error) {
	if cfg.Faults.active() || cfg.Reliable.enabled() || cfg.Observer != nil || cfg.Parallel {
		return Stats{}, fmt.Errorf("runDense runs fault-free, unobserved, sequential configs only")
	}
	maxRounds, err := cfg.check(g, nodes)
	if err != nil {
		return Stats{}, err
	}
	g.Finalize()
	n := len(nodes)
	var buf sendBuf
	ns := newNodeSet(g, nodes, 0, n, n, cfg, &buf)
	halted := make([]bool, n)
	inboxes := make([][]Message, n)
	var st Stats
	live := n
	for round := 0; ; round++ {
		st.Rounds, st.FinalLive = round, live
		if round >= maxRounds {
			return st, fmt.Errorf("%w (budget %d)", ErrRoundLimit, maxRounds)
		}
		if live == 0 {
			return st, nil
		}
		st.LiveNodeRounds += int64(live)
		var ran []int
		for id, nd := range nodes {
			if halted[id] {
				continue
			}
			ran = append(ran, id)
			ns.envs[id].beginRound()
			if nd.Round(round, inboxes[id]) {
				halted[id] = true
				live--
			}
		}
		st.Rounds, st.FinalLive = round+1, live
		next := make([][]Message, n)
		for _, id := range ran {
			env := &ns.envs[id]
			if env.sendErr != nil {
				return st, env.sendErr
			}
			if len(env.out) > 0 {
				st.Senders++
			}
			for _, rec := range env.out {
				to := []int32{rec.To}
				if rec.To == broadcastTo {
					to = g.Neighbors(id)
				}
				bits := 8 * len(rec.Payload)
				for _, v := range to {
					st.Messages++
					st.Bits += int64(bits)
					st.MaxMessageBits = max(st.MaxMessageBits, bits)
					if !halted[v] {
						next[v] = append(next[v], Message{From: int32(id), To: v, Payload: slices.Clone(rec.Payload)})
					}
				}
			}
			st.Rejected += env.rejected
		}
		inboxes = next
	}
}
