package congest

import (
	"fmt"
	"math"
	"runtime"
	"slices"
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

// idleFrontier returns a frontier over the ids lo..lo+n-1 with nothing
// active, as after a round in which every node parked or halted.
func idleFrontier(lo, n int) *frontier {
	f := newFrontier(idRange(lo, lo+n))
	f.active = f.active[:0]
	return f
}

// admit runs round's admission on f and returns the ids it admitted, then
// empties the active list again and rewinds the recipients, as a compute
// walk in which every admitted node halts and a merge would.
func admit(f *frontier, round int) []int32 {
	f.admitWoken(round)
	got := slices.Clone(f.active)
	f.active = f.active[:0]
	f.recips = f.recips[:0]
	return got
}

// TestFrontierEarlierReparkMovesTimer: a node delivery-woken before its
// timer that re-parks for an earlier round fires at the earlier round, and
// its old timer is gone: a later sleep is not cut short at the old round.
func TestFrontierEarlierReparkMovesTimer(t *testing.T) {
	f := idleFrontier(10, 4)
	f.park(12, 10)
	f.recips = append(f.recips, 12)
	if got := admit(f, 3); !slices.Equal(got, []int32{12}) {
		t.Fatalf("round 3: admitted %v, want the delivery wake [12]", got)
	}
	f.park(12, 7)
	if len(f.timers) != 1 || f.timers[0].at != 7 || f.timers[0].count != 1 {
		t.Fatalf("after re-parking until 7: timers %+v, want one row at 7", f.timers)
	}
	for r := 4; r <= 21; r++ {
		got := admit(f, r)
		switch r {
		case 7:
			if !slices.Equal(got, []int32{12}) {
				t.Fatalf("round 7: admitted %v, want [12]", got)
			}
			f.park(12, 20)
		case 20:
			if !slices.Equal(got, []int32{12}) {
				t.Fatalf("round 20: admitted %v, want [12]", got)
			}
		default:
			if len(got) != 0 {
				t.Fatalf("round %d: admitted %v, want nothing", r, got)
			}
		}
	}
	if len(f.timers) != 0 {
		t.Fatalf("timers left after the last wake: %+v", f.timers)
	}
}

// TestFrontierLaterReparkAddsNoEntry: a node that re-parks for a later
// round than its pending timer keeps the one timer (it wakes early, a
// no-op round under the SleepUntil contract) and gains no second entry.
func TestFrontierLaterReparkAddsNoEntry(t *testing.T) {
	f := idleFrontier(10, 4)
	f.park(11, 5)
	f.recips = append(f.recips, 11)
	if got := admit(f, 2); !slices.Equal(got, []int32{11}) {
		t.Fatalf("round 2: admitted %v, want the delivery wake [11]", got)
	}
	f.park(11, 9)
	if len(f.timers) != 1 || f.timers[0].at != 5 || f.timers[0].count != 1 {
		t.Fatalf("after re-parking until 9: timers %+v, want the one row at 5", f.timers)
	}
	for r := 3; r <= 12; r++ {
		got := admit(f, r)
		want := []int32(nil)
		if r == 5 {
			want = []int32{11}
		}
		if !slices.Equal(got, want) {
			t.Fatalf("round %d: admitted %v, want %v", r, got, want)
		}
	}
}

// TestFrontierDueIDsAdmitAscending: the ids a round admits — timer wakes
// in any park order, delivery wakes, and the nodes already active — come
// out in ascending id order (the compute walk's order, invariant I5).
func TestFrontierDueIDsAdmitAscending(t *testing.T) {
	f := idleFrontier(10, 8)
	for _, id := range []int32{15, 11, 17, 10, 13} {
		f.park(id, 4)
	}
	f.park(14, 9)
	f.active = append(f.active, 12, 16)
	f.recips = append(f.recips, 14)
	want := []int32{10, 11, 12, 13, 14, 15, 16, 17}
	if got := admit(f, 4); !slices.Equal(got, want) {
		t.Fatalf("admitted %v, want %v", got, want)
	}
}

// TestFrontierCrashWithTimerAdmitsOnce: a node that crashes with a pending
// timer and then recovers is admitted exactly once — by its recovery —
// whether the recovery falls in the timer's round or before it, and a
// later sleep is not cut short by the timer it had when it crashed.
func TestFrontierCrashWithTimerAdmitsOnce(t *testing.T) {
	for _, recoverAt := range []int{4, 6} {
		t.Run(fmt.Sprintf("recover_at=%d", recoverAt), func(t *testing.T) {
			f := idleFrontier(10, 4)
			f.park(11, 6)
			f.dropCrashed(11)
			if len(f.timers) != 0 {
				t.Fatalf("timers after the crash: %+v, want none", f.timers)
			}
			var admitted []int
			for r := 3; r <= 12; r++ {
				if r == recoverAt {
					f.revive(11)
				}
				got := admit(f, r)
				for _, id := range got {
					if id != 11 {
						t.Fatalf("round %d: admitted %v", r, got)
					}
					admitted = append(admitted, r)
				}
				if r == recoverAt {
					f.park(11, 10)
				}
			}
			if want := []int{recoverAt, 10}; !slices.Equal(admitted, want) {
				t.Fatalf("node 11 admitted at rounds %v, want %v", admitted, want)
			}
		})
	}
}

// TestFrontierFarSleepConstantBytes: a declaration at the far end of the
// default round budget costs one timer row, not storage sized by round
// number, and one beyond any budget is clamped to the budget limit.
func TestFrontierFarSleepConstantBytes(t *testing.T) {
	f := idleFrontier(0, 4)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f.park(1, DefaultMaxRounds-1)
	f.admitWoken(2)
	runtime.ReadMemStats(&after)
	if bytes := after.TotalAlloc - before.TotalAlloc; bytes > 1024 {
		t.Fatalf("SleepUntil(DefaultMaxRounds-1) allocated %d bytes, want O(1)", bytes)
	}
	if got := admit(f, DefaultMaxRounds-1); !slices.Equal(got, []int32{1}) {
		t.Fatalf("round DefaultMaxRounds-1: admitted %v, want [1]", got)
	}
	f.park(2, math.MaxInt)
	if len(f.timers) != 1 || f.timers[0].at != maxRoundBudget {
		t.Fatalf("SleepUntil(MaxInt): timers %+v, want one row at %d", f.timers, uint32(maxRoundBudget))
	}
}

// dozeNode sleeps from round 0 until its halt round.
type dozeNode struct {
	env  *Env
	halt int
}

func (d *dozeNode) Init(env *Env) { d.env = env }

func (d *dozeNode) Round(r int, inbox []Message) bool {
	if r >= d.halt {
		return true
	}
	d.env.SleepUntil(d.halt)
	return false
}

// TestRunAllocsFlatInWakes: a run in which every node sleeps from round 0
// to its halt round makes as many allocations at n=2^16 as at n=2^10.
// Scheduling n timers and waking n nodes in one round may size storage by
// n, but no allocation count may grow with the number of wakes.
func TestRunAllocsFlatInWakes(t *testing.T) {
	allocs := func(n int) float64 {
		g := NewGraph(n)
		nodes := make([]Node, n)
		for i := range nodes {
			nodes[i] = &dozeNode{halt: 8}
		}
		return testing.AllocsPerRun(3, func() {
			st, err := Run(g, nodes, Config{Seed: 1})
			if err != nil || st.Rounds != 9 {
				t.Fatalf("run: %+v, %v", st, err)
			}
		})
	}
	small, large := allocs(1<<10), allocs(1<<16)
	if small != large {
		t.Fatalf("allocations per run: %v at n=2^10, %v at n=2^16, want equal", small, large)
	}
}
