package fl

import (
	"math/rand"
	"strings"
	"testing"
)

func mustInstance(t *testing.T, name string, fac []int64, nc int, edges []RawEdge) *Instance {
	t.Helper()
	inst, err := New(name, fac, nc, edges)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return inst
}

// tiny returns a 2-facility, 3-client instance used across the tests:
//
//	f0 cost 10: c0@1, c1@2, c2@9
//	f1 cost 4:  c1@1, c2@2
func tiny(t *testing.T) *Instance {
	t.Helper()
	return mustInstance(t, "tiny", []int64{10, 4}, 3, []RawEdge{
		{Facility: 0, Client: 0, Cost: 1},
		{Facility: 0, Client: 1, Cost: 2},
		{Facility: 0, Client: 2, Cost: 9},
		{Facility: 1, Client: 1, Cost: 1},
		{Facility: 1, Client: 2, Cost: 2},
	})
}

func TestNewValidation(t *testing.T) {
	tests := []struct {
		name    string
		fac     []int64
		nc      int
		edges   []RawEdge
		wantErr string
	}{
		{"no facilities", nil, 1, nil, "at least one facility"},
		{"negative clients", []int64{1}, -1, nil, "negative client count"},
		{"negative facility cost", []int64{-5}, 1, nil, "out of range"},
		{"huge facility cost", []int64{MaxCost + 1}, 1, nil, "out of range"},
		{"bad facility index", []int64{1}, 1, []RawEdge{{Facility: 7, Client: 0, Cost: 1}}, "references facility"},
		{"bad client index", []int64{1}, 1, []RawEdge{{Facility: 0, Client: 3, Cost: 1}}, "references client"},
		{"negative edge cost", []int64{1}, 1, []RawEdge{{Facility: 0, Client: 0, Cost: -1}}, "out of range"},
		{"duplicate edge", []int64{1}, 1, []RawEdge{
			{Facility: 0, Client: 0, Cost: 1}, {Facility: 0, Client: 0, Cost: 2},
		}, "duplicate edge"},
		{"duplicate edge in a long later row", make([]int64, 20), 2, longDupRow(), "client 1: duplicate edge to 5"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := New("x", tt.fac, tt.nc, tt.edges)
			if err == nil {
				t.Fatalf("New succeeded, want error containing %q", tt.wantErr)
			}
			if !strings.Contains(err.Error(), tt.wantErr) {
				t.Fatalf("error %q does not contain %q", err, tt.wantErr)
			}
		})
	}
}

// longDupRow connects two clients to each of 20 facilities once, and client
// 1 to facility 5 a second time at a cost far from the first, so the two
// copies are not adjacent in the client's cost-sorted row.
func longDupRow() []RawEdge {
	var es []RawEdge
	for j := 0; j < 2; j++ {
		for i := 0; i < 20; i++ {
			es = append(es, RawEdge{Facility: i, Client: j, Cost: int64(i)})
		}
	}
	return append(es, RawEdge{Facility: 5, Client: 1, Cost: 100})
}

func TestInstanceAccessors(t *testing.T) {
	inst := tiny(t)
	if inst.M() != 2 || inst.NC() != 3 || inst.EdgeCount() != 5 {
		t.Fatalf("shape = (%d,%d,%d), want (2,3,5)", inst.M(), inst.NC(), inst.EdgeCount())
	}
	if inst.Name() != "tiny" {
		t.Errorf("Name = %q", inst.Name())
	}
	if c := inst.FacilityCost(1); c != 4 {
		t.Errorf("FacilityCost(1) = %d, want 4", c)
	}
	// Edges sorted ascending by cost.
	edges := inst.ClientEdges(2)
	if len(edges) != 2 || edges[0].To != 1 || edges[0].Cost != 2 || edges[1].To != 0 {
		t.Errorf("ClientEdges(2) = %v, want facility 1 first", edges)
	}
	fedges := inst.FacilityEdges(0)
	if len(fedges) != 3 || fedges[0].Cost != 1 || fedges[2].Cost != 9 {
		t.Errorf("FacilityEdges(0) = %v", fedges)
	}
}

func TestInstanceCostLookup(t *testing.T) {
	inst := tiny(t)
	tests := []struct {
		i, j int
		want int64
		ok   bool
	}{
		{0, 0, 1, true},
		{0, 2, 9, true},
		{1, 2, 2, true},
		{1, 0, 0, false}, // no edge
	}
	for _, tt := range tests {
		got, ok := inst.Cost(tt.i, tt.j)
		if got != tt.want || ok != tt.ok {
			t.Errorf("Cost(%d,%d) = (%d,%v), want (%d,%v)", tt.i, tt.j, got, ok, tt.want, tt.ok)
		}
	}
}

func TestCheapestEdge(t *testing.T) {
	inst := tiny(t)
	e, ok := inst.CheapestEdge(2)
	if !ok || e.To != 1 || e.Cost != 2 {
		t.Fatalf("CheapestEdge(2) = (%v,%v), want facility 1 cost 2", e, ok)
	}
	lonely := mustInstance(t, "lonely", []int64{1}, 1, nil)
	if _, ok := lonely.CheapestEdge(0); ok {
		t.Fatal("CheapestEdge on isolated client should report false")
	}
}

func TestSpreadAndExtremes(t *testing.T) {
	inst := tiny(t)
	// Coefficients: 10,4 (facilities), 1,2,9,1,2 (edges). max=10 min=1.
	if got := inst.Spread(); got != 10 {
		t.Errorf("Spread = %d, want 10", got)
	}
	if got := inst.MinPositiveCost(); got != 1 {
		t.Errorf("MinPositiveCost = %d, want 1", got)
	}

	zero := mustInstance(t, "zero", []int64{0}, 1, []RawEdge{{Facility: 0, Client: 0, Cost: 0}})
	if got := zero.Spread(); got != 1 {
		t.Errorf("all-zero Spread = %d, want 1", got)
	}
	if got := zero.MinPositiveCost(); got != 1 {
		t.Errorf("all-zero MinPositiveCost = %d, want 1", got)
	}
}

// fullScanSpread is the reference Spread and MinPositiveCost read: every
// facility cost and every client edge.
func fullScanSpread(in *Instance) (spread, minPos int64) {
	var maxC, minC int64
	for _, c := range in.facilityCost {
		maxC = max(maxC, c)
		if c > 0 && (minC == 0 || c < minC) {
			minC = c
		}
	}
	for _, e := range in.cEdges {
		maxC = max(maxC, e.Cost)
		if e.Cost > 0 && (minC == 0 || e.Cost < minC) {
			minC = e.Cost
		}
	}
	if minC == 0 {
		return 1, 1
	}
	return DivCeil(maxC, minC), minC
}

// TestSpreadMatchesFullScan checks that Spread and MinPositiveCost, which
// read each client row only at its ends, agree with a scan of every edge
// on random instances with zero-cost edges and all-zero rows, all-zero
// instances, facility costs above every edge and isolated clients.
func TestSpreadMatchesFullScan(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 300; trial++ {
		m, nc := 1+rng.Intn(6), rng.Intn(12)
		costRange := []int64{1, 3, 1000, MaxCost}[rng.Intn(4)]
		zeroFrac := rng.Intn(4) // 0: no zero-cost edge, 3: about 3/4 of them zero
		draw := func() int64 {
			if trial%10 == 0 || rng.Intn(4) < zeroFrac {
				return 0 // every tenth instance is all zero
			}
			return rng.Int63n(costRange) + 1
		}
		fac := make([]int64, m)
		for i := range fac {
			fac[i] = draw()
			if trial%3 == 1 && trial%10 != 0 {
				fac[i] = MaxCost - int64(rng.Intn(5)) // dominates every edge
			}
		}
		var edges []RawEdge
		for j := 0; j < nc; j++ {
			for i := 0; i < m; i++ {
				if rng.Intn(2) == 0 {
					edges = append(edges, RawEdge{Facility: i, Client: j, Cost: draw()})
				}
			}
		}
		inst := mustInstance(t, "spread", fac, nc, edges)
		wantSpread, wantMin := fullScanSpread(inst)
		if got := inst.Spread(); got != wantSpread {
			t.Fatalf("trial %d: Spread = %d, full scan %d", trial, got, wantSpread)
		}
		if got := inst.MinPositiveCost(); got != wantMin {
			t.Fatalf("trial %d: MinPositiveCost = %d, full scan %d", trial, got, wantMin)
		}
	}
}

func TestConnectable(t *testing.T) {
	if !tiny(t).Connectable() {
		t.Fatal("tiny should be connectable")
	}
	inst := mustInstance(t, "gap", []int64{1}, 2, []RawEdge{{Facility: 0, Client: 0, Cost: 1}})
	if inst.Connectable() {
		t.Fatal("client 1 has no edge; should not be connectable")
	}
}

func TestNewDense(t *testing.T) {
	inst, err := NewDense("dense", []int64{5, 6}, [][]int64{{1, 2}, {3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if inst.EdgeCount() != 4 {
		t.Fatalf("EdgeCount = %d, want 4", inst.EdgeCount())
	}
	if c, ok := inst.Cost(1, 0); !ok || c != 2 {
		t.Errorf("Cost(1,0) = (%d,%v), want (2,true)", c, ok)
	}
	if _, err := NewDense("bad", []int64{5, 6}, [][]int64{{1}}); err == nil {
		t.Fatal("row width mismatch should fail")
	}
}

func TestComputeStats(t *testing.T) {
	st := ComputeStats(tiny(t))
	if st.M != 2 || st.NC != 3 || st.Edges != 5 {
		t.Fatalf("stats shape wrong: %+v", st)
	}
	if st.MinClientDeg != 1 || st.MaxClientDeg != 2 {
		t.Errorf("degree range = [%d,%d], want [1,2]", st.MinClientDeg, st.MaxClientDeg)
	}
	if st.MinFacCost != 4 || st.MaxFacCost != 10 {
		t.Errorf("facility cost range = [%d,%d]", st.MinFacCost, st.MaxFacCost)
	}
	if st.MinEdgeCost != 1 || st.MaxEdgeCost != 9 {
		t.Errorf("edge cost range = [%d,%d]", st.MinEdgeCost, st.MaxEdgeCost)
	}
	if st.Spread != 10 || !st.Connectable {
		t.Errorf("spread/connectable = %d/%v", st.Spread, st.Connectable)
	}
	if s := st.String(); !strings.Contains(s, "m=2") || !strings.Contains(s, "rho=10") {
		t.Errorf("String() = %q", s)
	}
}
