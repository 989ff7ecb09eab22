package core

import (
	"math/rand"
	"slices"
	"testing"

	"dfl/internal/fl"
)

// edgePos is the reference lookup seek must agree with: a plain binary
// search of nodeSorted.
func (f *facilityNode) edgePos(node int32) (int, bool) {
	k, ok := slices.BinarySearch(f.nodeSorted, node)
	if !ok {
		return 0, false
	}
	return int(f.posAt[k]), true
}

// randomIndexInstance draws a small instance with one facility that has
// no edge (the returned index) and few distinct costs, so cost order and
// client order disagree and ties occur.
func randomIndexInstance(t *testing.T, rng *rand.Rand) (*fl.Instance, int) {
	t.Helper()
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
				edges = append(edges, fl.RawEdge{Facility: i, Client: j, Cost: int64(rng.Intn(5))})
			}
		}
	}
	inst, err := fl.New("index", costs, nc, edges)
	if err != nil {
		t.Fatal(err)
	}
	return inst, isolated
}

// TestFacilityNodeSortedIndex checks the transposed client index of
// newFacilityNodes on random instances, each with one facility that has
// no edge: edgeNode and nodeSorted are views of the graph's rows, not
// copies, edgeNode lists the instance's cost-sorted row, every facility's
// nodeSorted row is strictly ascending, posAt maps each entry back to the
// edge position of the same client, and edgePos answers every incident
// client and rejects the others.
func TestFacilityNodeSortedIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 40; trial++ {
		inst, isolated := randomIndexInstance(t, rng)
		m, nc := inst.M(), inst.NC()
		graph, fs := facilityNodes(t, inst, Config{K: 1}, Derived{})
		for i, f := range fs {
			if len(f.edgeNode) > 0 && (&f.edgeNode[0] != &graph.Neighbors(i)[0] || &f.nodeSorted[0] != &graph.SortedNeighbors(i)[0]) {
				t.Fatalf("trial %d facility %d: edgeNode or nodeSorted is not a view of the graph's row", trial, i)
			}
			for p, e := range inst.FacilityEdges(i) {
				if f.edgeNode[p] != int32(m+e.To) {
					t.Fatalf("trial %d facility %d: edgeNode[%d] = %d, want client node %d of the cost-sorted row", trial, i, p, f.edgeNode[p], m+e.To)
				}
			}
			if len(f.nodeSorted) != len(f.edgeNode) || len(f.posAt) != len(f.edgeNode) || len(f.edges) != len(f.edgeNode) {
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
				if got, ok := f.edgePos(node); !ok || got != p {
					t.Fatalf("trial %d facility %d: edgePos(%d) = (%d,%v), want (%d,true)", trial, i, node, got, ok, p)
				}
			}
			for node := m; node < m+nc; node++ {
				if _, ok := f.edgePos(int32(node)); ok != incident[node] {
					t.Fatalf("trial %d facility %d: edgePos(%d) found = %v, want %v", trial, i, node, ok, incident[node])
				}
			}
		}
	}
}

// TestFacilitySeekMatchesEdgePos drives the galloping cursor through id
// sequences in every order a facility can meet — ascending as inboxes
// deliver them, with adjacent duplicates as duplication faults leave
// them, descending and shuffled as forged or screened traffic might — and
// over ids the facility has no edge to (other clients, facility ids, ids
// past the last node, -1). Every lookup must agree with edgePos.
func TestFacilitySeekMatchesEdgePos(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 40; trial++ {
		inst, _ := randomIndexInstance(t, rng)
		n := inst.M() + inst.NC()
		_, fs := facilityNodes(t, inst, Config{K: 1}, Derived{})
		for i, f := range fs {
			for rep := 0; rep < 8; rep++ {
				var asc []int32
				for id := int32(-1); int(id) < n+3; id++ {
					if rng.Intn(2) == 0 {
						asc = append(asc, id)
					}
				}
				var dups []int32
				for _, id := range asc {
					for k := rng.Intn(3); k >= 0; k-- {
						dups = append(dups, id)
					}
				}
				desc := slices.Clone(dups)
				slices.Reverse(desc)
				shuffled := slices.Clone(dups)
				rng.Shuffle(len(shuffled), func(a, b int) { shuffled[a], shuffled[b] = shuffled[b], shuffled[a] })
				for _, seq := range [][]int32{asc, dups, desc, shuffled} {
					at := 0
					for _, id := range seq {
						wantPos, wantOK := f.edgePos(id)
						pos, ok := f.seek(&at, id)
						if ok != wantOK || (ok && pos != wantPos) {
							t.Fatalf("trial %d facility %d: seek(%d) in %v = (%d,%v), edgePos = (%d,%v)", trial, i, id, seq, pos, ok, wantPos, wantOK)
						}
						if at < 0 || at > len(f.nodeSorted) {
							t.Fatalf("trial %d facility %d: cursor %d outside [0,%d]", trial, i, at, len(f.nodeSorted))
						}
					}
				}
			}
		}
	}
}
