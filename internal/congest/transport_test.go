package congest

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSplitSpans(t *testing.T) {
	cases := []struct {
		n, k int
		want []Span
	}{
		{10, 1, []Span{{0, 10}}},
		{10, 3, []Span{{0, 4}, {4, 7}, {7, 10}}},
		{4, 4, []Span{{0, 1}, {1, 2}, {2, 3}, {3, 4}}},
		{3, 8, []Span{{0, 1}, {1, 2}, {2, 3}}}, // k clamped to n
		{5, 0, []Span{{0, 5}}},                 // k clamped to 1
	}
	for _, c := range cases {
		got := SplitSpans(c.n, c.k)
		if fmt.Sprint(got) != fmt.Sprint(c.want) {
			t.Errorf("SplitSpans(%d,%d) = %v, want %v", c.n, c.k, got, c.want)
		}
		checkSpanOf(t, got, c.n)
	}
	// ChanNetwork accepts any contiguous tiling, empty spans included.
	checkSpanOf(t, []Span{{0, 0}, {0, 3}, {3, 3}, {3, 5}, {5, 5}}, 5)
}

// checkSpanOf pins spanOf against a linear scan of the tiling of 0..n-1,
// ids outside it included.
func checkSpanOf(t *testing.T, spans []Span, n int) {
	t.Helper()
	for id := -1; id <= n; id++ {
		want := -1
		for i, s := range spans {
			if s.Contains(id) {
				want = i
			}
		}
		if got := spanOf(spans, id); got != want {
			t.Errorf("spanOf(%v, %d) = %d, want %d", spans, id, got, want)
		}
	}
}

// runShardFleet executes the stress workload over a ChanNetwork split into
// k spans, one goroutine per shard, and returns the aggregated stats and
// per-node logs.
func runShardFleet(t *testing.T, k int) (Stats, [][]string) {
	t.Helper()
	g := stressGraph(t)
	g.Finalize()
	n := g.N()
	nodes := make([]Node, n)
	recs := make([]*recNode, n)
	for i := range nodes {
		recs[i] = &recNode{stopAt: 4 + i/3}
		nodes[i] = recs[i]
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
			stats, err := RunShard(g, nodes, span, Config{Seed: 99}, net.Shard(si))
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
			if stats.MaxMessageBits > total.MaxMessageBits {
				total.MaxMessageBits = stats.MaxMessageBits
			}
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
	for i, r := range recs {
		logs[i] = r.log
	}
	return total, logs
}

// TestRunShardMatchesSequential is the transport-seam analogue of the I5
// matrix: the same workload run through RunShard over a ChanNetwork, at
// every shard count, must reproduce the sequential engine's execution —
// identical per-node receive logs and identical protocol-level message
// accounting.
func TestRunShardMatchesSequential(t *testing.T) {
	g := stressGraph(t)
	n := g.N()
	nodes := make([]Node, n)
	recs := make([]*recNode, n)
	for i := range nodes {
		recs[i] = &recNode{stopAt: 4 + i/3}
		nodes[i] = recs[i]
	}
	seqStats, err := Run(g, nodes, Config{Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	seqLogs := make([][]string, n)
	for i, r := range recs {
		seqLogs[i] = r.log
	}

	for _, k := range []int{1, 2, 3, 8} {
		t.Run(fmt.Sprintf("shards=%d", k), func(t *testing.T) {
			stats, logs := runShardFleet(t, k)
			if stats.Messages != seqStats.Messages || stats.Bits != seqStats.Bits || stats.MaxMessageBits != seqStats.MaxMessageBits {
				t.Errorf("stats diverged: sharded %+v vs sequential %+v", stats, seqStats)
			}
			if stats.Rounds != seqStats.Rounds {
				t.Errorf("rounds diverged: sharded %d vs sequential %d", stats.Rounds, seqStats.Rounds)
			}
			for i := range logs {
				if fmt.Sprint(logs[i]) != fmt.Sprint(seqLogs[i]) {
					t.Errorf("node %d log diverged:\n sharded    %v\n sequential %v", i, logs[i], seqLogs[i])
				}
			}
		})
	}
}

func TestRunShardRejectsFaultConfigs(t *testing.T) {
	g := mustGraph(t, 2, [][2]int{{0, 1}})
	g.Finalize()
	net, err := NewChanNetwork(2, []Span{{0, 2}})
	if err != nil {
		t.Fatal(err)
	}
	nodes := []Node{&recNode{stopAt: 1}, &recNode{stopAt: 1}}
	if _, err := RunShard(g, nodes, Span{0, 2}, Config{Faults: Faults{DropProb: 0.5}}, net.Shard(0)); err == nil {
		t.Fatal("RunShard accepted a simulated fault schedule")
	}
	if _, err := RunShard(g, nodes, Span{0, 2}, Config{Reliable: Reliable{RetryBudget: 2}}, net.Shard(0)); err == nil {
		t.Fatal("RunShard accepted the simulated reliable shim")
	}
	if _, err := RunShard(g, nodes, Span{0, 2}, Config{Dense: true}, net.Shard(0)); err == nil {
		t.Fatal("RunShard accepted the dense reference scheduler")
	}
	observer := func(int, []Message) {}
	if _, err := RunShard(g, nodes, Span{0, 2}, Config{Observer: observer}, net.Shard(0)); err == nil {
		t.Fatal("RunShard accepted an observer it never calls")
	}
	if _, err := RunShard(g, nodes, Span{0, 2}, Config{Parallel: true}, net.Shard(0)); err == nil {
		t.Fatal("RunShard accepted the parallel runner")
	}
}

// overNode broadcasts one byte every round until round 4; node 0 instead
// broadcasts 9 bytes in round 2, over a 64-bit limit.
type overNode struct{ env *Env }

func (o *overNode) Init(env *Env) { o.env = env }

func (o *overNode) Round(r int, _ []Message) bool {
	if r == 2 && o.env.ID() == 0 {
		o.env.Broadcast(make([]byte, 9))
	} else {
		o.env.Broadcast([]byte{byte(r)})
	}
	return r >= 4
}

// TestChanNetworkAbortReleasesPeers pins the failure path of an in-process
// fleet: when one shard's RunShard fails, Abort wakes the peers blocked at
// the barrier, so every shard returns an error instead of waiting forever.
func TestChanNetworkAbortReleasesPeers(t *testing.T) {
	g := mustGraph(t, 4, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}})
	g.Finalize()
	nodes := []Node{&overNode{}, &overNode{}, &overNode{}, &overNode{}}
	spans := SplitSpans(4, 2)
	net, err := NewChanNetwork(4, spans)
	if err != nil {
		t.Fatal(err)
	}
	errs := make([]error, len(spans))
	var wg sync.WaitGroup
	for si, sp := range spans {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[si] = RunShard(g, nodes, sp, Config{Seed: 1, BitLimit: 64}, net.Shard(si))
			if errs[si] != nil {
				net.Abort(errs[si])
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("shards still blocked 5s after one of them failed")
	}
	for si, err := range errs {
		if err == nil {
			t.Errorf("shard %d returned no error", si)
		}
	}
	if errs[0] == nil || !strings.Contains(errs[0].Error(), "exceeds limit") {
		t.Errorf("shard 0: %v, want the oversized broadcast", errs[0])
	}
}

func TestChanNetworkRejectsBadSpans(t *testing.T) {
	if _, err := NewChanNetwork(4, []Span{{0, 2}, {3, 4}}); err == nil {
		t.Fatal("accepted a gap in the span tiling")
	}
	if _, err := NewChanNetwork(4, []Span{{0, 2}, {2, 3}}); err == nil {
		t.Fatal("accepted spans not covering n")
	}
}

// TestReliableRetryExhaustionTyped pins the shim's retry exhaustion: a
// link held down past the shim's entire retry schedule must deliver
// nothing and count the abandoned frame in Stats.LinkDowns, after the
// budget's retransmissions are spent. The typed LinkDownError the UDP
// backend returns for the same event names the link, the round, and the
// attempts in its text.
func TestReliableRetryExhaustionTyped(t *testing.T) {
	g := mustGraph(t, 2, [][2]int{{0, 1}})
	s := &sink{stopAt: 14}
	stats, err := Run(g, []Node{&oneShot{to: 1, pay: []byte{'X'}}, s}, Config{
		Reliable: Reliable{RetryBudget: 2},
		Faults: Faults{
			LinkDowns: []LinkDown{{U: 0, V: 1, RoundRange: RoundRange{FromRound: 0, ToRound: 1 << 20}}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.got) != 0 {
		t.Fatalf("payload delivered through a dead link: %v", s.got)
	}
	if stats.LinkDowns != 1 {
		t.Fatalf("Stats.LinkDowns = %d, want 1", stats.LinkDowns)
	}
	if stats.Retransmits != 2 {
		t.Fatalf("Stats.Retransmits = %d, want the budget of 2", stats.Retransmits)
	}
	e := &LinkDownError{From: 0, To: 1, Round: 9, Attempts: 3}
	if msg := e.Error(); msg != "congest: link 0->1 down at round 9 after 3 attempts" {
		t.Fatalf("unexpected error text %q", msg)
	}
}
