package core

import (
	"math/rand"
	"testing"

	"dfl/internal/fl"
)

// TestFacilityNodeSortedIndex checks the transposed client index of
// newFacilityNodes on random instances, each with one facility that has
// no edge: every facility's nodeSorted row is strictly ascending, posAt
// maps each entry back to the edge position of the same client, and
// edgePos answers every incident client and rejects the others.
func TestFacilityNodeSortedIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 40; trial++ {
		m, nc := 2+rng.Intn(8), 1+rng.Intn(40)
		isolated := rng.Intn(m)
		costs := make([]int64, m)
		var edges []fl.RawEdge
		for i := range costs {
			costs[i] = int64(1 + rng.Intn(100))
			if i == isolated {
				continue
			}
			for j := 0; j < nc; j++ {
				if rng.Intn(3) == 0 {
					// Few distinct costs, so cost order and client order
					// disagree and ties occur.
					edges = append(edges, fl.RawEdge{Facility: i, Client: j, Cost: int64(rng.Intn(5))})
				}
			}
		}
		inst, err := fl.New("index", costs, nc, edges)
		if err != nil {
			t.Fatal(err)
		}
		for i, f := range newFacilityNodes(inst, Config{K: 1}, Derived{}) {
			if len(f.nodeSorted) != len(f.edgeNode) || len(f.posAt) != len(f.edgeNode) {
				t.Fatalf("trial %d facility %d: index lengths %d/%d, want %d", trial, i, len(f.nodeSorted), len(f.posAt), len(f.edgeNode))
			}
			if i == isolated && len(f.edgeNode) != 0 {
				t.Fatalf("trial %d facility %d: %d edges, want none", trial, i, len(f.edgeNode))
			}
			for k, node := range f.nodeSorted {
				if k > 0 && f.nodeSorted[k-1] >= node {
					t.Fatalf("trial %d facility %d: nodeSorted %v not strictly ascending", trial, i, f.nodeSorted)
				}
				if p := f.posAt[k]; f.edgeNode[p] != node {
					t.Fatalf("trial %d facility %d: edgeNode[posAt[%d]=%d] = %d, want %d", trial, i, k, p, f.edgeNode[p], node)
				}
			}
			incident := make(map[int]bool, len(f.edgeNode))
			for p, node := range f.edgeNode {
				incident[int(node)] = true
				if got, ok := f.edgePos(int(node)); !ok || got != p {
					t.Fatalf("trial %d facility %d: edgePos(%d) = (%d,%v), want (%d,true)", trial, i, node, got, ok, p)
				}
			}
			for node := m; node < m+nc; node++ {
				if _, ok := f.edgePos(node); ok != incident[node] {
					t.Fatalf("trial %d facility %d: edgePos(%d) found = %v, want %v", trial, i, node, ok, incident[node])
				}
			}
		}
	}
}
