package fl

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
)

// Edge is one bipartite connection possibility, seen from either side.
// When stored on a client it points at a facility; when stored on a facility
// it points at a client.
type Edge struct {
	To   int   // index of the node on the other side
	Cost int64 // connection cost, 0 <= Cost <= MaxCost
}

// Instance is an immutable uncapacitated facility location instance on a
// bipartite graph. Facilities are indexed 0..M()-1 and clients 0..NC()-1.
//
// Both adjacency directions are stored CSR-style: one flat edge array per
// side plus an offset table, so a 10M-edge instance is six allocations and
// every per-node edge list is a contiguous view. The slices returned by
// ClientEdges and FacilityEdges are views into that storage and must not be
// modified.
type Instance struct {
	name         string
	facilityCost []int64
	nc           int
	cEdges       []Edge // all client rows, sorted by ascending cost then facility id
	cStart       []int  // nc+1 offsets into cEdges
	fEdges       []Edge // all facility rows, sorted by ascending cost then client id
	fStart       []int  // m+1 offsets into fEdges
}

// RawEdge names one bipartite edge during instance construction.
type RawEdge struct {
	Facility int
	Client   int
	Cost     int64
}

// New builds an instance from facility opening costs and an explicit sparse
// edge list. Duplicate (facility, client) pairs are rejected.
func New(name string, facilityCost []int64, numClients int, edges []RawEdge) (*Instance, error) {
	return NewStreamed(name, len(facilityCost), numClients, func(fac func(int, int64) error, edge func(int, int, int64) error) error {
		for i, c := range facilityCost {
			if err := fac(i, c); err != nil {
				return err
			}
		}
		for _, e := range edges {
			if err := edge(e.Facility, e.Client, e.Cost); err != nil {
				return err
			}
		}
		return nil
	})
}

// NewStreamed builds an instance from a deterministic edge stream without
// ever materializing a RawEdge list: stream is invoked twice — once to
// count degrees and validate, once to fill the CSR arrays — and must
// produce the identical sequence of fac/edge calls both times (generators
// replay their RNG; readers re-scan their input). Working memory beyond the
// instance itself is the offset tables, so a 10M-edge instance streams in
// with no intermediate 10M-element buffer.
func NewStreamed(name string, m, numClients int, stream func(fac func(i int, cost int64) error, edge func(f, c int, cost int64) error) error) (*Instance, error) {
	if m <= 0 {
		return nil, errors.New("fl: instance needs at least one facility")
	}
	if numClients < 0 {
		return nil, fmt.Errorf("fl: negative client count %d", numClients)
	}
	inst := &Instance{
		name:         name,
		facilityCost: make([]int64, m),
		nc:           numClients,
		cStart:       make([]int, numClients+1),
		fStart:       make([]int, m+1),
	}
	// Pass 1: validate everything and count per-row degrees into the offset
	// tables (shifted by one so the prefix sum lands them in place).
	count := 0
	err := stream(
		func(i int, cost int64) error {
			if i < 0 || i >= m {
				return fmt.Errorf("fl: facility index %d out of range [0,%d)", i, m)
			}
			if cost < 0 || cost > MaxCost {
				return fmt.Errorf("fl: facility %d cost %d out of range [0, %d]", i, cost, MaxCost)
			}
			inst.facilityCost[i] = cost
			return nil
		},
		func(f, c int, cost int64) error {
			if f < 0 || f >= m {
				return fmt.Errorf("fl: edge references facility %d, have %d facilities", f, m)
			}
			if c < 0 || c >= numClients {
				return fmt.Errorf("fl: edge references client %d, have %d clients", c, numClients)
			}
			if cost < 0 || cost > MaxCost {
				return fmt.Errorf("fl: edge (%d,%d) cost %d out of range [0, %d]", f, c, cost, MaxCost)
			}
			inst.fStart[f+1]++
			inst.cStart[c+1]++
			count++
			return nil
		},
	)
	if err != nil {
		return nil, err
	}
	for i := 0; i < m; i++ {
		inst.fStart[i+1] += inst.fStart[i]
	}
	for j := 0; j < numClients; j++ {
		inst.cStart[j+1] += inst.cStart[j]
	}
	// Pass 2: fill. The write cursors reuse the validated offsets; a stream
	// that does not replay identically is detected by cursor overflow.
	inst.fEdges = make([]Edge, count)
	inst.cEdges = make([]Edge, count)
	fCur := make([]int, m)
	copy(fCur, inst.fStart[:m])
	cCur := make([]int, numClients)
	copy(cCur, inst.cStart[:numClients])
	err = stream(
		func(i int, cost int64) error { return nil },
		func(f, c int, cost int64) error {
			if fCur[f] >= inst.fStart[f+1] || cCur[c] >= inst.cStart[c+1] {
				return fmt.Errorf("fl: stream replay mismatch at edge (%d,%d)", f, c)
			}
			inst.fEdges[fCur[f]] = Edge{To: c, Cost: cost}
			fCur[f]++
			inst.cEdges[cCur[c]] = Edge{To: f, Cost: cost}
			cCur[c]++
			return nil
		},
	)
	if err != nil {
		return nil, err
	}
	// seen[i] == j+1 iff facility i already occurred in client j's row; the
	// stamp differs per row, so no reset pass is needed.
	seen := make([]int, m)
	for j := 0; j < numClients; j++ {
		row := inst.cEdges[inst.cStart[j]:inst.cStart[j+1]]
		sortEdges(row)
		for _, e := range row {
			if seen[e.To] == j+1 {
				return nil, fmt.Errorf("fl: client %d: duplicate edge to %d", j, e.To)
			}
			seen[e.To] = j + 1
		}
	}
	for i := 0; i < m; i++ {
		sortEdges(inst.fEdges[inst.fStart[i]:inst.fStart[i+1]])
	}
	return inst, nil
}

// NewDense builds a complete-bipartite instance from a cost matrix indexed
// costs[client][facility].
func NewDense(name string, facilityCost []int64, costs [][]int64) (*Instance, error) {
	m := len(facilityCost)
	edges := make([]RawEdge, 0, len(costs)*m)
	for j, row := range costs {
		if len(row) != m {
			return nil, fmt.Errorf("fl: cost row %d has %d entries, want %d", j, len(row), m)
		}
		for i, c := range row {
			edges = append(edges, RawEdge{Facility: i, Client: j, Cost: c})
		}
	}
	return New(name, facilityCost, len(costs), edges)
}

// sortEdges orders a row by ascending cost, then ascending endpoint.
func sortEdges(es []Edge) {
	slices.SortFunc(es, func(a, b Edge) int {
		if a.Cost != b.Cost {
			return cmp.Compare(a.Cost, b.Cost)
		}
		return cmp.Compare(a.To, b.To)
	})
}

// Name returns the instance's human-readable label.
func (in *Instance) Name() string { return in.name }

// M returns the number of facilities.
func (in *Instance) M() int { return len(in.facilityCost) }

// NC returns the number of clients.
func (in *Instance) NC() int { return in.nc }

// EdgeCount returns the number of bipartite edges.
func (in *Instance) EdgeCount() int { return len(in.cEdges) }

// FacilityCost returns the opening cost of facility i.
func (in *Instance) FacilityCost(i int) int64 { return in.facilityCost[i] }

// ClientEdges returns facility options of client j sorted by ascending cost.
// The returned slice is shared storage: callers must not modify it.
func (in *Instance) ClientEdges(j int) []Edge { return in.cEdges[in.cStart[j]:in.cStart[j+1]] }

// FacilityEdges returns client options of facility i sorted by ascending
// cost. The returned slice is shared storage: callers must not modify it.
func (in *Instance) FacilityEdges(i int) []Edge { return in.fEdges[in.fStart[i]:in.fStart[i+1]] }

// Cost returns the connection cost between facility i and client j, and
// whether that edge exists.
func (in *Instance) Cost(i, j int) (int64, bool) {
	// Edges are sorted by cost, not facility id, so scan; client degrees are
	// small in sparse instances and a scan beats a map for dense ones too.
	for _, e := range in.ClientEdges(j) {
		if e.To == i {
			return e.Cost, true
		}
	}
	return 0, false
}

// CheapestEdge returns the cheapest facility option of client j, or false
// when j has no incident edge.
func (in *Instance) CheapestEdge(j int) (Edge, bool) {
	es := in.ClientEdges(j)
	if len(es) == 0 {
		return Edge{}, false
	}
	return es[0], true
}

// Spread returns rho: the ratio between the largest and the smallest
// non-zero numeric coefficient (facility or connection cost) of the
// instance, rounded up, and at least 1. It parameterizes the class base of
// the distributed algorithm.
func (in *Instance) Spread() int64 {
	maxC, minC := in.costRange()
	if minC == 0 {
		return 1
	}
	return DivCeil(maxC, minC)
}

// MinPositiveCost returns the smallest strictly positive coefficient of the
// instance, or 1 when all coefficients are zero.
func (in *Instance) MinPositiveCost() int64 {
	if _, minC := in.costRange(); minC > 0 {
		return minC
	}
	return 1
}

// costRange returns the largest coefficient of the instance and its
// smallest positive one (0 when there is none) in O(m+nc): client rows
// ascend in cost, so a row's maximum is its last entry and its smallest
// positive cost the first entry past its leading zeros.
func (in *Instance) costRange() (maxC, minC int64) {
	consider := func(lo, hi int64) {
		maxC = max(maxC, hi)
		if lo > 0 && (minC == 0 || lo < minC) {
			minC = lo
		}
	}
	for _, f := range in.facilityCost {
		consider(f, f)
	}
	for j := 0; j < in.nc; j++ {
		row := in.cEdges[in.cStart[j]:in.cStart[j+1]]
		k := 0
		for k < len(row) && row[k].Cost == 0 {
			k++
		}
		if k < len(row) {
			consider(row[k].Cost, row[len(row)-1].Cost)
		}
	}
	return maxC, minC
}

// Connectable reports whether every client has at least one incident edge,
// i.e. whether a feasible solution exists.
func (in *Instance) Connectable() bool {
	for j := 0; j < in.nc; j++ {
		if in.cStart[j+1] == in.cStart[j] {
			return false
		}
	}
	return true
}
