package congest

import (
	"fmt"
	"sync"
	"testing"
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
}

func TestChanNetworkRejectsBadSpans(t *testing.T) {
	if _, err := NewChanNetwork(4, []Span{{0, 2}, {3, 4}}); err == nil {
		t.Fatal("accepted a gap in the span tiling")
	}
	if _, err := NewChanNetwork(4, []Span{{0, 2}, {2, 3}}); err == nil {
		t.Fatal("accepted spans not covering n")
	}
}

// TestReliableRetryExhaustionTyped pins the typed per-link report of
// satellite interest: a link held down past the shim's entire retry
// schedule must surface a LinkDownError naming the peer, the declaration
// round, and the attempts spent — and count the event in Stats.LinkDowns.
func TestReliableRetryExhaustionTyped(t *testing.T) {
	g := mustGraph(t, 2, [][2]int{{0, 1}})
	var downs []LinkDownError
	s := &sink{stopAt: 14}
	stats, err := Run(g, []Node{&oneShot{to: 1, pay: []byte{'X'}}, s}, Config{
		Reliable: Reliable{RetryBudget: 2},
		Faults: Faults{
			LinkDowns: []LinkDown{{U: 0, V: 1, RoundRange: RoundRange{FromRound: 0, ToRound: 1 << 20}}},
		},
		OnLinkDown: func(e LinkDownError) { downs = append(downs, e) },
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
	if len(downs) != 1 {
		t.Fatalf("OnLinkDown fired %d times, want 1", len(downs))
	}
	// Schedule: initial attempt at round 0, retries at rounds 2 and 5
	// (attempt a waits a+1 rounds), abandonment when the next retry comes
	// due at round 9 with the budget of 2 retransmissions spent.
	want := LinkDownError{From: 0, To: 1, Round: 9, Attempts: 3}
	if downs[0] != want {
		t.Fatalf("link-down report = %+v, want %+v", downs[0], want)
	}
	if msg := downs[0].Error(); msg != "congest: link 0->1 down at round 9 after 3 attempts" {
		t.Fatalf("unexpected error text %q", msg)
	}
}
