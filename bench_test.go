// Benchmarks: one testing.B target per evaluation artifact (tables T1-T6,
// figures F1-F2; see EXPERIMENTS.md) plus micro-benchmarks for the hot
// paths. The table/figure benchmarks run the harness in quick mode so that
// `go test -bench=. -benchmem` finishes in minutes; `cmd/flbench` (without
// -quick) regenerates the full-size artifacts.
package dfl_test

import (
	"testing"

	"dfl"
	"dfl/internal/bench"
	"dfl/internal/congest"
	"dfl/internal/core"
	"dfl/internal/fl"
	"dfl/internal/gen"
	"dfl/internal/lp"
	"dfl/internal/seq"
)

func runExperiment(b *testing.B, id string) {
	b.Helper()
	e, err := bench.ExperimentByID(id)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		tables, err := e.Run(bench.Params{Quick: true, Seed: 42, Runs: 2})
		if err != nil {
			b.Fatal(err)
		}
		if len(tables) == 0 {
			b.Fatal("no tables")
		}
	}
}

// BenchmarkTable1TradeoffK regenerates Table 1 (approximation vs K).
func BenchmarkTable1TradeoffK(b *testing.B) { runExperiment(b, "E1") }

// BenchmarkTable2Scaling regenerates Table 2 (rounds/messages vs n).
func BenchmarkTable2Scaling(b *testing.B) { runExperiment(b, "E2") }

// BenchmarkTable3Comparison regenerates Table 3 (algorithm comparison).
func BenchmarkTable3Comparison(b *testing.B) { runExperiment(b, "E3") }

// BenchmarkFigure1Spread regenerates Figure 1 (ratio vs rho).
func BenchmarkFigure1Spread(b *testing.B) { runExperiment(b, "E4") }

// BenchmarkFigure2Frontier regenerates Figure 2 (rounds/ratio frontier).
func BenchmarkFigure2Frontier(b *testing.B) { runExperiment(b, "E5") }

// BenchmarkTable4MessageBits regenerates Table 4 (CONGEST compliance).
func BenchmarkTable4MessageBits(b *testing.B) { runExperiment(b, "E6") }

// BenchmarkTable5Ablation regenerates Table 5 (design-choice ablation).
func BenchmarkTable5Ablation(b *testing.B) { runExperiment(b, "E7") }

// BenchmarkTable6ExactAudit regenerates Table 6 (exact-ratio audit).
func BenchmarkTable6ExactAudit(b *testing.B) { runExperiment(b, "E8") }

// BenchmarkTable7FaultSensitivity regenerates Table 7 (message-loss
// degradation).
func BenchmarkTable7FaultSensitivity(b *testing.B) { runExperiment(b, "E9") }

// BenchmarkFigure3Convergence regenerates Figure 3 (progress over rounds).
func BenchmarkFigure3Convergence(b *testing.B) { runExperiment(b, "E10") }

// BenchmarkTable8CapacitySweep regenerates Table 8 (soft-capacitated
// extension).
func BenchmarkTable8CapacitySweep(b *testing.B) { runExperiment(b, "E11") }

// BenchmarkTable9LPGapAudit regenerates Table 9 (bound-chain audit).
func BenchmarkTable9LPGapAudit(b *testing.B) { runExperiment(b, "E12") }

// --- Micro-benchmarks for the hot paths ---

func benchInstance(b *testing.B, m, nc int) *fl.Instance {
	b.Helper()
	inst, err := gen.Uniform{M: m, NC: nc}.Generate(1)
	if err != nil {
		b.Fatal(err)
	}
	return inst
}

// BenchmarkDistributedSolve measures one full protocol run (K=16).
func BenchmarkDistributedSolve(b *testing.B) {
	inst := benchInstance(b, 30, 150)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := core.Solve(inst, core.Config{K: 16}, core.WithSeed(int64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDistributedSolveParallel measures the goroutine-per-worker
// engine on the same workload.
func BenchmarkDistributedSolveParallel(b *testing.B) {
	inst := benchInstance(b, 30, 150)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := core.Solve(inst, core.Config{K: 16},
			core.WithSeed(int64(i)), core.WithParallel(true)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSeqGreedy measures the sequential greedy baseline.
func BenchmarkSeqGreedy(b *testing.B) {
	inst := benchInstance(b, 30, 150)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := seq.Greedy(inst); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSeqGreedyFast measures the lazy-heap greedy (identical output
// to BenchmarkSeqGreedy's algorithm).
func BenchmarkSeqGreedyFast(b *testing.B) {
	inst := benchInstance(b, 30, 150)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := seq.GreedyFast(inst); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkJainVazirani measures the primal-dual baseline.
func BenchmarkJainVazirani(b *testing.B) {
	inst := benchInstance(b, 30, 150)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := seq.JainVazirani(inst); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLPLowerBound measures the dual-ascent lower bound.
func BenchmarkLPLowerBound(b *testing.B) {
	inst := benchInstance(b, 30, 150)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lp.LowerBound(inst); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineRound measures raw simulator round throughput with a
// broadcast-heavy dummy protocol.
func BenchmarkEngineRound(b *testing.B) {
	const n = 256
	g := congest.NewGraph(n)
	for u := 0; u < n; u++ {
		for d := 1; d <= 4; d++ {
			v := (u + d) % n
			_ = g.AddEdge(u, v)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nodes := make([]congest.Node, n)
		for j := range nodes {
			nodes[j] = &broadcastNode{rounds: 20}
		}
		if _, err := congest.Run(g, nodes, congest.Config{Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineRoundParallel is BenchmarkEngineRound on the persistent
// worker pool (one shard per GOMAXPROCS).
func BenchmarkEngineRoundParallel(b *testing.B) {
	const n = 256
	g := congest.NewGraph(n)
	for u := 0; u < n; u++ {
		for d := 1; d <= 4; d++ {
			v := (u + d) % n
			_ = g.AddEdge(u, v)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nodes := make([]congest.Node, n)
		for j := range nodes {
			nodes[j] = &broadcastNode{rounds: 20}
		}
		if _, err := congest.Run(g, nodes, congest.Config{Seed: int64(i), Parallel: true}); err != nil {
			b.Fatal(err)
		}
	}
}

type broadcastNode struct {
	env    *congest.Env
	rounds int
}

func (n *broadcastNode) Init(env *congest.Env) { n.env = env }
func (n *broadcastNode) Round(r int, inbox []congest.Message) bool {
	if r >= n.rounds {
		return true
	}
	n.env.Broadcast([]byte{byte(r)})
	return false
}

// BenchmarkGenerateUniform measures instance generation.
func BenchmarkGenerateUniform(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := (gen.Uniform{M: 50, NC: 200}).Generate(int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPublicAPISolve exercises the dfl façade end to end.
func BenchmarkPublicAPISolve(b *testing.B) {
	inst, err := dfl.Uniform{M: 20, NC: 80}.Generate(1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := dfl.SolveDistributed(inst, dfl.DistConfig{K: 9}, dfl.WithSeed(int64(i))); err != nil {
			b.Fatal(err)
		}
	}
}
