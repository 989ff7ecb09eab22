package congest

import (
	"fmt"
	"sync"
	"testing"
)

// drowsyNode exercises the frontier scheduler's dormancy path while
// honoring the SleepUntil contract. It acts every fifth round — drawing
// from its private stream and messaging every neighbour — and declares the
// rounds in between no-ops. A delivery on a declared round wakes it: it
// echoes 0xEE at the senders' neighbours unless the round's traffic was
// itself only echoes. On an empty inbox the in-between rounds change no
// state and draw nothing, which is exactly what makes the declaration
// sound (the dense reference scheduler executes them for real).
type drowsyNode struct {
	env    *Env
	stopAt int
	log    []string
}

var _ Recoverable = (*drowsyNode)(nil)

func (d *drowsyNode) Init(env *Env) { d.env = env }
func (d *drowsyNode) Recover()      { d.log = append(d.log, "rec") }

func (d *drowsyNode) Round(r int, inbox []Message) bool {
	reply := false
	for _, m := range inbox {
		d.log = append(d.log, fmt.Sprintf("r%d<%d:%x", r, m.From, m.Payload))
		if len(m.Payload) == 0 || m.Payload[0] != 0xEE {
			reply = true
		}
	}
	if r >= d.stopAt {
		return true
	}
	switch {
	case r%5 == 0:
		b := byte(d.env.Rand().Intn(256))
		for _, v := range d.env.Neighbors() {
			d.env.Send(int(v), []byte{b, byte(r)})
		}
	case reply:
		for _, v := range d.env.Neighbors() {
			d.env.Send(int(v), []byte{0xEE, byte(r)})
		}
	}
	// Sleep to the next action round, clamped to the halt round: halting
	// is a state change, so sleeping past stopAt would be an unsound
	// declaration and the dense comparison below would catch it.
	next := r + 5 - r%5
	if next > d.stopAt {
		next = d.stopAt
	}
	d.env.SleepUntil(next)
	return false
}

// drowsySchedules is the dormancy acceptance grid: fault-free (pure
// timer/delivery wakes, the only schedule a parallel run shards), crash
// plus recovery (frontier eviction and revival), and corrupt+byzantine
// (fault-pipeline delivery with adversarial wakes at arbitrary rounds).
func drowsySchedules() []struct {
	name string
	f    Faults
} {
	return []struct {
		name string
		f    Faults
	}{
		{name: "fault_free", f: Faults{}},
		{name: "crash_recover", f: Faults{
			DropProb:       0.3,
			CrashAtRound:   map[int]int{4: 2, 17: 5},
			RecoverAtRound: map[int]int{4: 9},
		}},
		{name: "corrupt_byzantine", f: Faults{
			CorruptProb:        0.25,
			ByzantineFromRound: map[int]int{2: 1, 9: 3},
		}},
	}
}

func runDrowsy(t *testing.T, f Faults, dense, parallel bool, shards int) (Stats, [][]string) {
	t.Helper()
	g := stressGraph(t)
	n := g.N()
	nodes := make([]Node, n)
	drows := make([]*drowsyNode, n)
	for i := range nodes {
		drows[i] = &drowsyNode{stopAt: 12 + 5*(i%4)}
		nodes[i] = drows[i]
	}
	stats, err := Run(g, nodes, Config{
		Seed:     424242,
		Dense:    dense,
		Parallel: parallel,
		Shards:   shards,
		Faults:   f,
	})
	if err != nil {
		t.Fatal(err)
	}
	logs := make([][]string, n)
	for i, d := range drows {
		logs[i] = d.log
	}
	return stats, logs
}

// TestFrontierDeterminismMatrix pins invariant I5 over the dormancy grid:
// for every fault schedule, the frontier scheduler — sequential and at
// shard counts 1, 2, and 8 — must reproduce the dense reference runner's
// execution byte for byte: identical Stats (the activity counters
// included) and identical per-node receive logs.
func TestFrontierDeterminismMatrix(t *testing.T) {
	for _, sc := range drowsySchedules() {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			denseStats, denseLogs := runDrowsy(t, sc.f, true, false, 0)
			if denseStats.Senders == 0 || denseStats.LiveNodeRounds == 0 {
				t.Fatalf("schedule too tame: %+v", denseStats)
			}
			check := func(label string, st Stats, logs [][]string) {
				if st != denseStats {
					t.Fatalf("%s stats differ:\n%+v\n%+v", label, st, denseStats)
				}
				for id := range denseLogs {
					if fmt.Sprint(logs[id]) != fmt.Sprint(denseLogs[id]) {
						t.Fatalf("%s node %d log diverged:\n%v\n%v", label, id, logs[id], denseLogs[id])
					}
				}
			}
			seqStats, seqLogs := runDrowsy(t, sc.f, false, false, 0)
			check("frontier-seq", seqStats, seqLogs)
			for _, shards := range []int{1, 2, 8} {
				st, logs := runDrowsy(t, sc.f, false, true, shards)
				check(fmt.Sprintf("frontier-shards=%d", shards), st, logs)
			}
		})
	}
}

// tickNode counts its Round invocations: a beacon pings its neighbours
// every sixth round, everyone else sleeps until its halt round and only a
// delivery wakes it.
type tickNode struct {
	env    *Env
	beacon bool
	stopAt int
	runs   int
}

func (n *tickNode) Init(env *Env) { n.env = env }

func (n *tickNode) Round(r int, inbox []Message) bool {
	n.runs++
	if r >= n.stopAt {
		return true
	}
	next := n.stopAt
	if n.beacon {
		if r%6 == 0 {
			for _, v := range n.env.Neighbors() {
				n.env.Send(int(v), []byte{1})
			}
		}
		if nx := r + 6 - r%6; nx < next {
			next = nx
		}
	}
	n.env.SleepUntil(next)
	return false
}

// TestFrontierSkipsQuiescentNodes is the work-ceiling pin behind the
// sparse-rounds claim: on a star whose centre beacons every sixth round,
// the frontier scheduler must invoke each leaf's Round only on round 0,
// once per delivery, and at its halt round — while the dense reference
// runs every node every round. The counts are exact, not bounds.
func TestFrontierSkipsQuiescentNodes(t *testing.T) {
	const leaves, stopAt = 8, 30
	build := func() ([]Node, []*tickNode, *Graph) {
		g := NewGraph(leaves + 1)
		for v := 1; v <= leaves; v++ {
			if err := g.AddEdge(0, v); err != nil {
				t.Fatal(err)
			}
		}
		ticks := make([]*tickNode, leaves+1)
		nodes := make([]Node, leaves+1)
		for i := range nodes {
			ticks[i] = &tickNode{beacon: i == 0, stopAt: stopAt}
			nodes[i] = ticks[i]
		}
		return nodes, ticks, g
	}

	nodes, ticks, g := build()
	frontStats, err := Run(g, nodes, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Beacon: timer wakes at rounds 0,6,12,18,24 plus the halt round.
	if got, want := ticks[0].runs, 6; got != want {
		t.Errorf("beacon ran %d rounds, want %d", got, want)
	}
	// Leaves: round 0, one wake per beacon delivery (rounds 1,7,13,19,25),
	// and the halt round.
	for v := 1; v <= leaves; v++ {
		if got, want := ticks[v].runs, 7; got != want {
			t.Errorf("leaf %d ran %d rounds, want %d", v, got, want)
		}
	}

	nodes, ticks, g = build()
	denseStats, err := Run(g, nodes, Config{Seed: 1, Dense: true})
	if err != nil {
		t.Fatal(err)
	}
	for i, tick := range ticks {
		if got, want := tick.runs, stopAt+1; got != want {
			t.Errorf("dense node %d ran %d rounds, want %d", i, got, want)
		}
	}
	if frontStats != denseStats {
		t.Errorf("stats diverged:\nfrontier %+v\ndense    %+v", frontStats, denseStats)
	}
}

// TestFrontierObserverParity is the tracing regression: with frontier
// bookkeeping active the observer must still see every delivered message,
// in the same per-round global-sender order as the dense reference,
// sequential and sharded alike.
func TestFrontierObserverParity(t *testing.T) {
	observeRun := func(dense, parallel bool, shards int) ([]string, Stats) {
		g := stressGraph(t)
		nodes := make([]Node, g.N())
		for i := range nodes {
			nodes[i] = &drowsyNode{stopAt: 12 + 5*(i%4)}
		}
		var stream []string
		stats, err := Run(g, nodes, Config{
			Seed:     7,
			Dense:    dense,
			Parallel: parallel,
			Shards:   shards,
			Observer: func(round int, delivered []Message) {
				last := int32(-1)
				for _, m := range delivered {
					if m.From < last {
						t.Errorf("round %d: delivery order not ascending by sender (%d after %d)", round, m.From, last)
					}
					last = m.From
					stream = append(stream, fmt.Sprintf("r%d %d>%d %x", round, m.From, m.To, m.Payload))
				}
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return stream, stats
	}
	denseStream, denseStats := observeRun(true, false, 0)
	if len(denseStream) == 0 {
		t.Fatal("workload too tame: nothing observed")
	}
	for _, v := range []struct {
		label    string
		parallel bool
		shards   int
	}{
		{label: "frontier-seq"},
		{label: "frontier-shards=2", parallel: true, shards: 2},
		{label: "frontier-shards=8", parallel: true, shards: 8},
	} {
		stream, stats := observeRun(false, v.parallel, v.shards)
		if stats != denseStats {
			t.Errorf("%s: stats diverged:\n%+v\n%+v", v.label, stats, denseStats)
		}
		if fmt.Sprint(stream) != fmt.Sprint(denseStream) {
			t.Errorf("%s: observer stream diverged (%d vs %d deliveries)", v.label, len(stream), len(denseStream))
		}
	}
}

// TestTransportFrontierMatchesDense extends the transport-seam I5 check to
// the frontier scheduler: a dormancy-heavy workload over a ChanNetwork
// fleet must reproduce the sequential dense reference run's per-node logs
// and, summed over the shards, its activity stats.
func TestTransportFrontierMatchesDense(t *testing.T) {
	fleet := func(k int) (Stats, [][]string) {
		g := stressGraph(t)
		g.Finalize()
		n := g.N()
		nodes := make([]Node, n)
		drows := make([]*drowsyNode, n)
		for i := range nodes {
			drows[i] = &drowsyNode{stopAt: 12 + 5*(i%4)}
			nodes[i] = drows[i]
		}
		spans := SplitSpans(n, k)
		net, err := NewChanNetwork(n, spans)
		if err != nil {
			t.Fatal(err)
		}
		var (
			wg       sync.WaitGroup
			mu       sync.Mutex
			total    Stats
			firstErr error
		)
		for si, span := range spans {
			wg.Add(1)
			go func(si int, span Span) {
				defer wg.Done()
				stats, err := RunShard(g, nodes, span, Config{Seed: 424242}, net.Shard(si))
				if err != nil {
					net.Abort(err)
				}
				mu.Lock()
				defer mu.Unlock()
				if err != nil && firstErr == nil {
					firstErr = err
				}
				total.Messages += stats.Messages
				total.Bits += stats.Bits
				total.Senders += stats.Senders
				total.LiveNodeRounds += stats.LiveNodeRounds
				total.FinalLive += stats.FinalLive
				if stats.Rounds > total.Rounds {
					total.Rounds = stats.Rounds
				}
			}(si, span)
		}
		wg.Wait()
		if firstErr != nil {
			t.Fatal(firstErr)
		}
		logs := make([][]string, n)
		for i, d := range drows {
			logs[i] = d.log
		}
		return total, logs
	}

	denseStats, denseLogs := runDrowsy(t, Faults{}, true, false, 0)
	want := Stats{
		Rounds:         denseStats.Rounds,
		Messages:       denseStats.Messages,
		Bits:           denseStats.Bits,
		Senders:        denseStats.Senders,
		LiveNodeRounds: denseStats.LiveNodeRounds,
		FinalLive:      denseStats.FinalLive,
	}
	for _, k := range []int{1, 2, 3} {
		t.Run(fmt.Sprintf("shards=%d", k), func(t *testing.T) {
			frontStats, frontLogs := fleet(k)
			if frontStats != want {
				t.Errorf("fleet stats diverged:\ndense    %+v\nfrontier %+v", want, frontStats)
			}
			for i := range denseLogs {
				if fmt.Sprint(denseLogs[i]) != fmt.Sprint(frontLogs[i]) {
					t.Errorf("node %d log diverged:\ndense    %v\nfrontier %v", i, denseLogs[i], frontLogs[i])
				}
			}
		})
	}
}
