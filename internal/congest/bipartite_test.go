package congest

import (
	"math"
	"slices"
	"strings"
	"testing"
)

// rowsStart returns the CSR offsets of rows.
func rowsStart(rows [][]int32) []int {
	start := make([]int, len(rows)+1)
	for i, row := range rows {
		start[i+1] = start[i] + len(row)
	}
	return start
}

// checkRowsMatchBipartite builds the graph of the facility rows rows (client
// indices) with BipartiteRows and with the closure-form Bipartite walking
// the same rows facility by facility, and checks that both fail with the
// same error or build the same graph: N, EdgeCount, every node's Degree,
// Neighbors and SortedNeighbors, facility rows in the given order, and a
// permutation that maps each facility's sorted row back to its row, checked
// through NeighborIndex. It returns BipartiteRows' error.
func checkRowsMatchBipartite(t *testing.T, m, nc int, rows [][]int32) error {
	t.Helper()
	start := rowsStart(rows)
	g, perm, err := BipartiteRows(m, nc, start, func(i int, row []int32) {
		if len(row) != len(rows[i]) || cap(row) != len(row) {
			t.Fatalf("fill(%d) got a row of len %d cap %d, want %d", i, len(row), cap(row), len(rows[i]))
		}
		copy(row, rows[i])
	})
	ref, refErr := Bipartite(m, nc, func(yield func(int, int) bool) {
		for i, row := range rows {
			for _, j := range row {
				if !yield(i, int(j)) {
					return
				}
			}
		}
	})
	if (err == nil) != (refErr == nil) || err != nil && err.Error() != refErr.Error() {
		t.Fatalf("BipartiteRows error %v, Bipartite error %v", err, refErr)
	}
	if err != nil {
		if g != nil || perm != nil {
			t.Fatalf("BipartiteRows failed with %v but returned a graph or a permutation", err)
		}
		return err
	}
	if g.N() != m+nc || ref.N() != m+nc || g.EdgeCount() != ref.EdgeCount() || g.EdgeCount() != start[m] || len(perm) != start[m] {
		t.Fatalf("N=%d E=%d len(perm)=%d, Bipartite N=%d E=%d, want N=%d E=%d", g.N(), g.EdgeCount(), len(perm), ref.N(), ref.EdgeCount(), m+nc, start[m])
	}
	for u := 0; u < g.N(); u++ {
		if g.Degree(u) != ref.Degree(u) {
			t.Fatalf("Degree(%d) = %d, Bipartite %d", u, g.Degree(u), ref.Degree(u))
		}
		if !slices.Equal(g.Neighbors(u), ref.Neighbors(u)) {
			t.Fatalf("Neighbors(%d) = %v, Bipartite %v", u, g.Neighbors(u), ref.Neighbors(u))
		}
		if !slices.Equal(g.SortedNeighbors(u), ref.SortedNeighbors(u)) {
			t.Fatalf("SortedNeighbors(%d) = %v, Bipartite %v", u, g.SortedNeighbors(u), ref.SortedNeighbors(u))
		}
	}
	for i, row := range rows {
		for p, j := range row {
			v := g.Neighbors(i)[p]
			if v != int32(m)+j {
				t.Fatalf("Neighbors(%d)[%d] = %d, want client node %d", i, p, v, int32(m)+j)
			}
			k, ok := g.NeighborIndex(i, int(v))
			if !ok || int(perm[start[i]+k]) != p {
				t.Fatalf("facility %d: NeighborIndex(%d) = (%d,%v), permutation there %d, want position %d", i, v, k, ok, perm[start[i]+k], p)
			}
		}
	}
	return nil
}

// TestBipartiteRows pins BipartiteRows against the closure-form Bipartite
// on hand-written rows, among them facilities and clients of degree zero,
// an empty graph and the error cases: a client index out of range on
// either side, a client listed twice in one row (adjacently or not).
func TestBipartiteRows(t *testing.T) {
	cases := []struct {
		name  string
		m, nc int
		rows  [][]int32
		want  string // error substring; "" for success
	}{
		{"mixed", 3, 5, [][]int32{{4, 0, 2}, {}, {2, 1, 4, 0}}, ""}, // client 3 and facility 1 isolated
		{"one edge", 1, 1, [][]int32{{0}}, ""},
		{"no clients", 2, 0, [][]int32{{}, {}}, ""},
		{"no facilities", 0, 3, [][]int32{}, ""},
		{"no nodes", 0, 0, [][]int32{}, ""},
		{"client below range", 2, 3, [][]int32{{0}, {1, -1}}, "edge (1,1) out of range [0,5)"},
		{"client above range", 2, 3, [][]int32{{0, 3}, {1}}, "edge (0,5) out of range [0,5)"},
		{"adjacent duplicate", 2, 3, [][]int32{{1}, {2, 2}}, "duplicate edge (1,4)"},
		{"split duplicate", 2, 4, [][]int32{{0, 3, 1, 3}, {3}}, "duplicate edge (0,5)"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := checkRowsMatchBipartite(t, c.m, c.nc, c.rows)
			if c.want == "" && err != nil || c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)) {
				t.Fatalf("BipartiteRows error %v, want %q", err, c.want)
			}
		})
	}
}

// TestBipartiteRowsRejectsBeforeFill checks the errors BipartiteRows
// reports before it allocates the graph or calls fill: a node count beyond
// the int32 id space (checked before the offsets, whose length it would
// otherwise take from m) and offsets that are not m+1 ascending values
// from 0.
func TestBipartiteRowsRejectsBeforeFill(t *testing.T) {
	cases := []struct {
		name  string
		m, nc int
		start []int
		want  string
	}{
		{"beyond int32 ids", math.MaxInt32, 1, []int{0}, "int32 id space"},
		{"clients beyond int32 ids", 1, math.MaxInt32, []int{0, 0}, "int32 id space"},
		{"int overflow", math.MaxInt, 1, nil, "int32 id space"},
		{"negative clients", 1, -1, []int{0, 0}, "int32 id space"},
		{"short offsets", 2, 1, []int{0, 1}, "offsets"},
		{"offsets from 1", 1, 1, []int{1, 1}, "offsets"},
		{"descending offsets", 2, 1, []int{0, 1, 0}, "offsets"},
	}
	for _, c := range cases {
		g, perm, err := BipartiteRows(c.m, c.nc, c.start, func(int, []int32) {
			t.Fatalf("%s: fill called", c.name)
		})
		if g != nil || perm != nil || err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: BipartiteRows = (%v, %v, %v), want an error containing %q", c.name, g, perm, err, c.want)
		}
	}
}

// FuzzBipartiteRows decodes a byte string into facility rows — m and nc
// from the first two bytes, then per facility a length byte and that many
// client indices from -1 to nc, so rows go out of range and repeat clients
// — and checks BipartiteRows against the closure-form Bipartite on them.
func FuzzBipartiteRows(f *testing.F) {
	f.Add([]byte{2, 4, 3, 1, 2, 3, 2, 0, 4})
	f.Add([]byte{3, 5, 0, 2, 1, 1, 1, 5})
	f.Add([]byte{1, 3, 2, 0, 4})
	f.Add([]byte{4, 0})
	f.Add([]byte{5, 20, 6, 1, 3, 5, 7, 9, 11, 0, 4, 2, 4, 6, 8, 5, 20, 19, 18, 1, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		m, nc := int(data[0]%8), int(data[1]%24)
		data = data[2:]
		rows := make([][]int32, m)
		for i := range rows {
			if len(data) == 0 {
				break
			}
			l := min(int(data[0]%16), len(data)-1)
			for _, b := range data[1 : 1+l] {
				rows[i] = append(rows[i], int32(int(b)%(nc+2))-1)
			}
			data = data[1+l:]
		}
		checkRowsMatchBipartite(t, m, nc, rows)
	})
}
