package core

import (
	"testing"

	"dfl/internal/congest"
	"dfl/internal/fl"
	"dfl/internal/gen"
)

// benchFacility builds a facilityNode over one facility with nClients
// attached clients at costs 1, 2, ..., nClients and the given opening cost.
// The benchmarks' opening costs keep every star's effectiveness ratio above
// the (tiny) thresholds of the benchmark Derived below: makeOffer
// classifies the star as ineligible and returns after the scan without
// needing a live congest.Env.
func benchFacility(tb testing.TB, nClients int, openCost int64) *facilityNode {
	tb.Helper()
	edges := make([]fl.RawEdge, nClients)
	for j := range edges {
		edges[j] = fl.RawEdge{Facility: 0, Client: j, Cost: int64(j + 1)}
	}
	inst, err := fl.New("bench", []int64{openCost}, nClients, edges)
	if err != nil {
		tb.Fatal(err)
	}
	d := Derived{Chi: 2, Phases: 1, ItersPerPhase: 1, Base: 1, ProtoRounds: 4}
	_, fs := facilityNodes(tb, inst, Config{K: 1, Slack: 1}, d)
	return fs[0]
}

// facilityNodes builds inst's communication graph and every facility over
// it, as newRun does.
func facilityNodes(tb testing.TB, inst *fl.Instance, cfg Config, d Derived) (*congest.Graph, []*facilityNode) {
	tb.Helper()
	graph, posAt, err := commGraph(inst)
	if err != nil {
		tb.Fatal(err)
	}
	return graph, newFacilityNodes(inst, graph, posAt, cfg, d)
}

// BenchmarkMakeOffer measures the dirty path: the cache is invalidated
// before every call, so each iteration rescans the 512-client edge list.
// This is the cost a DONE or CONNECT inflicts. The scan stops at the first
// client whose cost reaches the best ratio, and with an opening cost of
// 2^40 no cost in the row (at most 512) does, so every call reads the whole
// row: this is the worst case.
func BenchmarkMakeOffer(b *testing.B) {
	f := benchFacility(b, 512, 1<<40)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.starDirty = true
		f.makeOffer(1)
	}
}

// BenchmarkMakeOfferEarlyStop measures the dirty path on the same row with
// an opening cost of 128: the best star is the 16 cheapest clients (ratio
// 16.5, still above the thresholds), and the scan ends at the 17th, whose
// cost 17 reaches that ratio, so a call reads 17 of the 512 positions.
func BenchmarkMakeOfferEarlyStop(b *testing.B) {
	f := benchFacility(b, 512, earlyStopOpenCost)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.starDirty = true
		f.makeOffer(1)
	}
}

// earlyStopOpenCost is BenchmarkMakeOfferEarlyStop's opening cost.
const earlyStopOpenCost = 128

// BenchmarkMakeOfferCached measures the steady state: iterations between
// invalidations reuse the cached best star, so the call should be near-free
// and allocation-free.
func BenchmarkMakeOfferCached(b *testing.B) {
	f := benchFacility(b, 512, 1<<40)
	f.starDirty = true
	f.makeOffer(1) // prime the cache
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.makeOffer(1)
	}
}

// TestBenchFacilityIneligible pins the assumptions the benchmarks rely
// on: at both opening costs the best star exists but is above every
// threshold, so makeOffer returns before touching the (nil) environment;
// at 2^40 the scan reads the whole row, and at earlyStopOpenCost it stops
// right after the 16-client best star.
func TestBenchFacilityIneligible(t *testing.T) {
	for _, tc := range []struct {
		openCost         int64
		bestLen, scanned int
	}{
		{1 << 40, 512, 512},
		{earlyStopOpenCost, 16, 16},
	} {
		f := benchFacility(t, 512, tc.openCost)
		f.makeOffer(1)
		if f.starDirty {
			t.Fatal("makeOffer left the cache dirty")
		}
		if f.bestLen != tc.bestLen || len(f.starPos) != tc.scanned {
			t.Fatalf("opening cost %d: best star %d clients after %d scanned, want %d after %d",
				tc.openCost, f.bestLen, len(f.starPos), tc.bestLen, tc.scanned)
		}
		if f.bestClass != -1 {
			t.Fatalf("opening cost %d: bestClass = %d, want -1 (ineligible)", tc.openCost, f.bestClass)
		}
	}
}

// BenchmarkNewRun measures a Solve's set-up layer alone — Derive, the
// communication graph with its facility index, and the node population —
// on solve_mid's instance (800 facilities, 6400 clients, density 0.2,
// K=16). The instance is generated before the timer starts.
func BenchmarkNewRun(b *testing.B) {
	inst, err := gen.Uniform{M: 800, NC: 6400, Density: 0.2, MinDegree: 3}.Generate(3)
	if err != nil {
		b.Fatal(err)
	}
	cfg := Config{K: 16}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := newRun(inst, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
