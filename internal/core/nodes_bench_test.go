package core

import (
	"testing"

	"dfl/internal/congest"
	"dfl/internal/fl"
)

// benchFacility builds a facilityNode over one facility with nClients
// attached clients. The opening cost is huge, so every star's effectiveness
// ratio stays above the (tiny) thresholds of the benchmark Derived below:
// makeOffer classifies the star as ineligible and returns after the scan
// without needing a live congest.Env.
func benchFacility(tb testing.TB, nClients int) *facilityNode {
	tb.Helper()
	edges := make([]fl.RawEdge, nClients)
	for j := range edges {
		edges[j] = fl.RawEdge{Facility: 0, Client: j, Cost: int64(j + 1)}
	}
	inst, err := fl.New("bench", []int64{1 << 40}, nClients, edges)
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
	graph, err := buildGraph(inst)
	if err != nil {
		tb.Fatal(err)
	}
	return graph, newFacilityNodes(inst, graph, cfg, d)
}

// BenchmarkMakeOffer measures the dirty path: the cache is invalidated
// before every call, so each iteration pays the full best-star scan over
// the 512-client edge list. This is the cost a DONE or CONNECT inflicts.
func BenchmarkMakeOffer(b *testing.B) {
	f := benchFacility(b, 512)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.starDirty = true
		f.makeOffer(1)
	}
}

// BenchmarkMakeOfferCached measures the steady state: iterations between
// invalidations reuse the cached best star, so the call should be near-free
// and allocation-free.
func BenchmarkMakeOfferCached(b *testing.B) {
	f := benchFacility(b, 512)
	f.starDirty = true
	f.makeOffer(1) // prime the cache
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.makeOffer(1)
	}
}

// TestBenchFacilityIneligible pins the assumption the two benchmarks rely
// on: with the huge opening cost the best star exists but is above every
// threshold, so makeOffer returns before touching the (nil) environment.
func TestBenchFacilityIneligible(t *testing.T) {
	f := benchFacility(t, 16)
	f.makeOffer(1)
	if f.starDirty {
		t.Fatal("makeOffer left the cache dirty")
	}
	if f.bestLen == 0 {
		t.Fatal("no best star found")
	}
	if f.bestClass != -1 {
		t.Fatalf("bestClass = %d, want -1 (ineligible)", f.bestClass)
	}
}
