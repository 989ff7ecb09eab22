// Package congest simulates the CONGEST model of distributed computing:
// a synchronous message-passing network in which every node may send one
// bounded-size message per neighbour per round.
//
// The engine runs an arbitrary set of Node state machines on an undirected
// communication graph. Two runners are provided — a deterministic
// sequential one and a sharded parallel one (node ids split into
// contiguous ranges, one persistent worker per shard, each shard ingesting
// the round's staged records addressed to it) — and both produce
// byte-identical executions for the same configuration and any shard
// count, which the test suite verifies. Faults, reliable delivery and
// observers run on the sequential runner only. Message and bit counts,
// per-message size limits, and halt detection are built in.
package congest

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
)

// Graph is an undirected communication topology over nodes 0..N()-1.
//
// A graph has two phases. During the builder phase AddEdge appends to a
// pending edge list in O(1). Finalize (called explicitly, by the engine at
// the start of Run, or lazily by the first query) freezes the graph into a
// CSR (compressed sparse row) layout: one flat neighbour array indexed by a
// rowStart offset table, so the whole adjacency structure is three
// allocations regardless of node count and neighbour iteration is a
// contiguous scan. Per-row neighbour order is insertion order — exactly the
// order the old slice-of-slices builder produced — so freezing changes no
// observable iteration order. A second flat array keeps each row sorted by
// neighbour id for O(log degree) adjacency queries; it is built by
// transposing the deduplicated rows in O(edges), without a sort.
// BipartiteRows and Bipartite skip the builder phase: they take only the
// facility rows, scatter them into the client rows and transpose those
// into the facilities' sorted rows, so the graph is frozen from the start.
//
// Neighbour ids are stored as int32, the O(log n)-bit id of the model, so
// each directed edge costs 8 bytes across the two arrays; a graph holds at
// most math.MaxInt32 nodes.
//
// The zero value is an empty graph; use NewGraph.
type Graph struct {
	n int
	// Builder phase: endpoint pairs in AddEdge call order.
	pendU, pendV []int
	// Frozen CSR. rowStart has n+1 entries; the neighbours of u are
	// nbrs[rowStart[u]:rowStart[u+1]] in insertion order, and sorted holds
	// the same rows in ascending neighbour-id order for binary search.
	frozen    bool
	rowStart  []int
	nbrs      []int32
	sorted    []int32
	edgeCount int
}

// NewGraph returns a graph with n isolated nodes.
func NewGraph(n int) *Graph {
	return &Graph{n: n}
}

// N returns the number of nodes.
func (g *Graph) N() int { return g.n }

// AddEdge connects u and v. Self-loops are rejected immediately; duplicate
// edges are detected at Finalize time (silently dropped by Finalize, an
// error from FinalizeChecked). Adding an edge to a frozen graph, or to a
// graph of more than math.MaxInt32 nodes, is an error.
func (g *Graph) AddEdge(u, v int) error {
	if g.frozen {
		return fmt.Errorf("congest: AddEdge(%d,%d) on frozen graph", u, v)
	}
	if g.n > math.MaxInt32 {
		return fmt.Errorf("congest: %d nodes exceed the int32 id space", g.n)
	}
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		return fmt.Errorf("congest: edge (%d,%d) out of range [0,%d)", u, v, g.n)
	}
	if u == v {
		return fmt.Errorf("congest: self-loop at %d", u)
	}
	g.pendU = append(g.pendU, u)
	g.pendV = append(g.pendV, v)
	return nil
}

// Finalize freezes the graph into its CSR layout, silently dropping all but
// the first occurrence of each duplicate edge. It is idempotent; queries and
// the engine call it automatically.
func (g *Graph) Finalize() {
	if !g.frozen {
		g.freeze(nil)
	}
}

// FinalizeChecked freezes the graph like Finalize but reports the first
// duplicate edge encountered. The graph is frozen (with duplicates dropped)
// even when an error is returned.
func (g *Graph) FinalizeChecked() error {
	if g.frozen {
		return nil
	}
	var err error
	g.freeze(&err)
	return err
}

// freeze packs the pending edge list into the CSR arrays. Counting sort by
// endpoint keeps per-row order identical to the append order the old
// slice-of-slices builder used; a stamp array dedups each row in one pass;
// a transpose of the deduplicated rows fills the sorted index.
func (g *Graph) freeze(dupErr *error) {
	n := g.n
	rowStart := make([]int, n+1)
	for k := range g.pendU {
		rowStart[g.pendU[k]+1]++
		rowStart[g.pendV[k]+1]++
	}
	for u := 0; u < n; u++ {
		rowStart[u+1] += rowStart[u]
	}
	nbrs := make([]int32, rowStart[n])
	cur := make([]int, n)
	copy(cur, rowStart[:n])
	for k := range g.pendU {
		u, v := g.pendU[k], g.pendV[k]
		nbrs[cur[u]] = int32(v)
		cur[u]++
		nbrs[cur[v]] = int32(u)
		cur[v]++
	}
	// Stable in-place dedup: stamp[v] == u+1 iff v was already seen in row
	// u; later rows use a distinct stamp value so no reset pass is needed.
	stamp := make([]int, n)
	write := 0
	newStart := make([]int, n+1)
	for u := 0; u < n; u++ {
		newStart[u] = write
		for k := rowStart[u]; k < rowStart[u+1]; k++ {
			v := nbrs[k]
			if stamp[v] == u+1 {
				if dupErr != nil && *dupErr == nil {
					*dupErr = fmt.Errorf("congest: duplicate edge (%d,%d)", u, v)
				}
				continue
			}
			stamp[v] = u + 1
			nbrs[write] = v
			write++
		}
	}
	newStart[n] = write
	g.rowStart = newStart
	g.nbrs = nbrs[:write:write]
	g.pendU, g.pendV = nil, nil
	g.transpose(cur)
}

// transpose fills the sorted rows from the frozen, deduplicated
// insertion-order rows and freezes the graph; cur is scratch of n entries.
// Walking u ascending and appending u to the sorted row of each of its
// neighbours leaves every sorted row ascending, because the adjacency is
// symmetric (v is in u's row iff u is in v's).
func (g *Graph) transpose(cur []int) {
	n, rowStart, nbrs := g.n, g.rowStart, g.nbrs
	sorted := make([]int32, len(nbrs))
	copy(cur, rowStart[:n])
	for u := 0; u < n; u++ {
		for _, v := range nbrs[rowStart[u]:rowStart[u+1]] {
			sorted[cur[v]] = int32(u)
			cur[v]++
		}
	}
	g.sorted = sorted
	g.edgeCount = len(nbrs) / 2
	g.frozen = true
}

// Neighbors returns the neighbour list of u in insertion order. Shared
// storage: callers must not modify the returned slice, whose capacity ends
// with the row.
func (g *Graph) Neighbors(u int) []int32 {
	g.Finalize()
	lo, hi := g.rowStart[u], g.rowStart[u+1]
	return g.nbrs[lo:hi:hi]
}

// SortedNeighbors returns the neighbour list of u in ascending id order:
// the same ids as Neighbors, and the row NeighborIndex positions refer to.
// Shared storage: callers must not modify the returned slice, whose
// capacity ends with the row.
func (g *Graph) SortedNeighbors(u int) []int32 {
	g.Finalize()
	lo, hi := g.rowStart[u], g.rowStart[u+1]
	return g.sorted[lo:hi:hi]
}

// Degree returns the number of neighbours of u.
func (g *Graph) Degree(u int) int {
	g.Finalize()
	return g.rowStart[u+1] - g.rowStart[u]
}

// EdgeCount returns the number of undirected edges.
func (g *Graph) EdgeCount() int {
	g.Finalize()
	return g.edgeCount
}

// NeighborIndex returns a dense index for neighbour v of u — its position
// in u's ascending-id row, in [0, Degree(u)) — and whether the edge exists.
// The index is stable for the life of the frozen graph and distinct per
// neighbour, so flat per-edge state arrays can be indexed by it. Note it is
// the sorted-row position, not the Neighbors iteration position.
func (g *Graph) NeighborIndex(u, v int) (int, bool) {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		return 0, false
	}
	g.Finalize()
	row := g.sorted[g.rowStart[u]:g.rowStart[u+1]]
	pos, ok := slices.BinarySearch(row, int32(v))
	if !ok {
		return 0, false
	}
	return pos, true
}

// rowOffsets returns the CSR offsets of node u's row. Engine use only.
func (g *Graph) rowOffsets(u int) (int, int) {
	return g.rowStart[u], g.rowStart[u+1]
}

// inEdge returns the slot of the directed edge from→to: to's row start
// plus from's position in to's sorted row. The slots of the edges into one
// node are contiguous, so per-link state kept at the receiver clears as
// one row. Engine use only; from and to must be adjacent.
func (g *Graph) inEdge(from, to int32) int {
	lo, hi := g.rowStart[to], g.rowStart[to+1]
	pos, _ := slices.BinarySearch(g.sorted[lo:hi], from)
	return lo + pos
}

// errBipartiteReplay reports a second walk of Bipartite's edges that
// yields other per-row degrees than the first.
var errBipartiteReplay = errors.New("congest: the second walk of the bipartite edges does not replay the first")

// BipartiteRows builds the communication graph of a facility-location
// instance from its facility rows: facilities occupy node ids 0..m-1 and
// clients m..m+nc-1. start holds the m+1 CSR offsets of the rows, and
// fill(i, row) is called once per facility, in ascending order, to write
// the client indices (0..nc-1) of facility i's row; the graph keeps that
// order as facility i's Neighbors. Every client's Neighbors lists its
// facilities in ascending id order.
//
// It also returns, for every facility, the permutation from its sorted row
// to its insertion order: entry start[i]+k is the position in facility i's
// Neighbors of the k-th entry of its SortedNeighbors. A client index out of
// range and a client listed twice in one row are errors, as is a node
// count beyond the int32 id space, which is rejected before anything is
// allocated.
func BipartiteRows(m, nc int, start []int, fill func(facility int, row []int32)) (*Graph, []int32, error) {
	if m < 0 || nc < 0 || m > math.MaxInt32-nc {
		return nil, nil, fmt.Errorf("congest: bipartite graph of %d+%d nodes exceeds the int32 id space", m, nc)
	}
	if len(start) != m+1 || start[0] != 0 || !slices.IsSorted(start) {
		return nil, nil, fmt.Errorf("congest: %d facility row offsets, want %d ascending from 0", len(start), m+1)
	}
	g := newBipartite(m, nc, start)
	for i := 0; i < m; i++ {
		fill(i, g.nbrs[start[i]:start[i+1]:start[i+1]])
	}
	perm := make([]int32, start[m])
	if err := g.linkClients(m, perm); err != nil {
		return nil, nil, err
	}
	return g, perm, nil
}

// newBipartite allocates a bipartite graph whose facility rows span start,
// for the caller to fill with client indices before linkClients.
func newBipartite(m, nc int, start []int) *Graph {
	n, e := m+nc, start[m]
	g := &Graph{n: n, rowStart: make([]int, n+1), nbrs: make([]int32, 2*e), sorted: make([]int32, 2*e)}
	copy(g.rowStart, start)
	return g
}

// linkClients completes a graph from newBipartite once its facility rows
// hold client indices, in linear passes over the edges. The first checks
// each index, counts the client degrees and turns the index into a node
// id. The second scatters the client rows, walking the facilities in
// ascending order, so each client row comes out ascending. The third
// transposes the client rows into the facilities' sorted rows, ascending
// for the same reason; a client written twice in a row into one
// facility's sorted row is a duplicate edge. The clients' sorted rows are
// then copies of their insertion rows. Unless perm is nil, a last walk
// over each facility's two rows, through a scratch of client positions
// small enough to stay in cache, fills perm.
func (g *Graph) linkClients(m int, perm []int32) error {
	n, rowStart, nbrs, sorted := g.n, g.rowStart, g.nbrs, g.sorted
	e := rowStart[m]
	for i := 0; i < m; i++ {
		for k := rowStart[i]; k < rowStart[i+1]; k++ {
			j := int(nbrs[k])
			if j < 0 || j >= n-m {
				return fmt.Errorf("congest: edge (%d,%d) out of range [0,%d)", i, m+j, n)
			}
			rowStart[m+j+1]++
			nbrs[k] = int32(m + j)
		}
	}
	for u := m; u < n; u++ {
		rowStart[u+1] += rowStart[u]
	}
	cur := make([]int, n)
	copy(cur, rowStart[:n])
	for i := 0; i < m; i++ {
		for _, v := range nbrs[rowStart[i]:rowStart[i+1]] {
			nbrs[cur[v]] = int32(i)
			cur[v]++
		}
	}
	for v := m; v < n; v++ {
		for _, i := range nbrs[rowStart[v]:rowStart[v+1]] {
			s := cur[i]
			if s > rowStart[i] && sorted[s-1] == int32(v) {
				return fmt.Errorf("congest: duplicate edge (%d,%d)", i, v)
			}
			sorted[s] = int32(v)
			cur[i]++
		}
	}
	copy(sorted[e:], nbrs[e:])
	if perm != nil {
		pos := cur // by client node id: its position in the facility's row
		for i := 0; i < m; i++ {
			lo, hi := rowStart[i], rowStart[i+1]
			for p, v := range nbrs[lo:hi] {
				pos[v] = p
			}
			for k, v := range sorted[lo:hi] {
				perm[lo+k] = int32(pos[v])
			}
		}
	}
	g.edgeCount = e
	g.frozen = true
	return nil
}

// Bipartite builds the same graph as BipartiteRows from a walk of the
// (facility i, client j) pairs instead of the rows: each facility's row
// lists its clients in the order edges yields them, and each client's row
// its facilities in ascending order.
//
// edges is walked twice: the first walk counts every row's degree, the
// second fills the facility rows, and linkClients completes the graph. A
// pair out of range, a duplicate pair, and a second walk that does not
// yield the same per-row degrees as the first are errors, as is a node
// count beyond the int32 id space, which is rejected before anything is
// allocated.
func Bipartite(m, nc int, edges func(yield func(facility, client int) bool)) (*Graph, error) {
	if m < 0 || nc < 0 || m > math.MaxInt32-nc {
		return nil, fmt.Errorf("congest: bipartite graph of %d+%d nodes exceeds the int32 id space", m, nc)
	}
	var err error
	inRange := func(i, j int) bool {
		if i < 0 || i >= m || j < 0 || j >= nc {
			err = fmt.Errorf("congest: edge (%d,%d) out of range [0,%d)", i, m+j, m+nc)
			return false
		}
		return true
	}
	start, deg := make([]int, m+1), make([]int, nc)
	edges(func(i, j int) bool {
		if !inRange(i, j) {
			return false
		}
		start[i+1]++
		deg[j]++
		return true
	})
	if err != nil {
		return nil, err
	}
	for i := 0; i < m; i++ {
		start[i+1] += start[i]
	}
	// The second walk may not overfill a facility row or a client's
	// degree, so it replays the first iff it also fills every edge slot.
	g := newBipartite(m, nc, start)
	cur, left := start, start[m] // g.rowStart holds the offsets now
	edges(func(i, j int) bool {
		if !inRange(i, j) {
			return false
		}
		if cur[i] == g.rowStart[i+1] || deg[j] == 0 {
			err = errBipartiteReplay
			return false
		}
		g.nbrs[cur[i]] = int32(j)
		cur[i]++
		deg[j]--
		left--
		return true
	})
	if err == nil && left != 0 {
		err = errBipartiteReplay
	}
	if err != nil {
		return nil, err
	}
	if err := g.linkClients(m, nil); err != nil {
		return nil, err
	}
	return g, nil
}

// Message is one payload in flight. From and To are node ids, int32 like
// the graph's neighbour ids, so that a record is 32 bytes; the payload
// size (in bits) is charged against the model's message-size budget.
type Message struct {
	From, To int32
	Payload  []byte
}

// Bits returns the payload size in bits.
func (m Message) Bits() int { return len(m.Payload) * 8 }

// Node is one distributed state machine. Init is called exactly once before
// round 0 with the node's private environment. Round is called once per
// round with the messages sent to this node in the previous round, sorted
// by ascending sender id; it returns true when the node halts. A halted
// node receives no further Round calls; messages addressed to it are
// delivered to nobody but still counted. Inbox messages (including their
// payload bytes, which live in the sending span's round buffers) are valid
// only for the duration of the Round call — a node must copy anything it
// keeps — and read-only: the recipients of one Broadcast share a single
// payload copy.
//
// A node sends only from its own Round call. Init may keep the Env and
// read its identity, neighbours and random stream, but a Send or Broadcast
// made from Init, from Recover, or on another node's Env is a send
// violation that ends the run with an error naming the Env's node.
type Node interface {
	Init(env *Env)
	Round(round int, inbox []Message) (halt bool)
}

// Recoverable is a Node that can rejoin after an injected crash
// (Faults.RecoverAtRound). Recover is called by the engine at the start of
// the recovery round and must reset the node to its post-Init state: all
// protocol state is lost, while the environment — identity, neighbour
// list, private random stream — survives the restart. Messages addressed
// to the node while it was down stay lost. Recover must not send: as from
// Init, a send there is a violation that ends the run.
type Recoverable interface {
	Node
	Recover()
}

// Env is a node's private handle to the network: its identity, neighbour
// list, deterministic private randomness, and the sends of its Round call.
//
// An Env holds only the node's id, its lazily built random source and a
// pointer to the cursor of the span that runs it, 24 bytes in one flat
// per-run array. Everything else lives once per span (see cursor): the
// per-run constants, the round buffer the span's nodes stage into, and the
// send state of the one node the span is running. So Send and Broadcast
// act only inside the node's own Round call (see Node), and Reject and
// SleepUntil outside it do nothing.
type Env struct {
	c *cursor
	// rng is built on the first Rand() call from the node seed, which
	// derives from the run seed and the id. A math/rand source alone is
	// ~5 KiB, so eager construction would dominate engine memory in the
	// million-node regime — and most nodes (clients, benchmark chatter)
	// never draw.
	rng *rand.Rand
	// id is the node's id, an int32 like the ids of the graph's sorted
	// rows.
	id int32
}

// ID returns the node's id.
func (e *Env) ID() int { return int(e.id) }

// Neighbors returns the node's neighbour list in the graph's insertion
// order (shared storage, do not modify).
func (e *Env) Neighbors() []int32 { return e.c.graph.Neighbors(int(e.id)) }

// Degree returns the node's degree.
func (e *Env) Degree() int { return e.c.graph.Degree(int(e.id)) }

// Rand returns the node's private deterministic random source,
// constructing it on first use. Laziness is unobservable to the
// protocol: the stream is a pure function of the node seed, not of
// construction time, so a node that draws sees exactly the sequence the
// eager engine produced — and a node that never draws costs no source
// state.
func (e *Env) Rand() *rand.Rand {
	if e.rng == nil {
		e.rng = rand.New(rand.NewSource(nodeSeed(e.c.seed, int(e.id))))
	}
	return e.rng
}

// SleepUntil declares that this node's Round calls are no-ops — no state
// change, no sends, no Rand() draws — for every round after the current one
// and before the given round, as long as its inbox stays empty. The
// frontier scheduler then skips those Round calls entirely; a message
// delivery wakes the node in time to run the round the message arrives in,
// and the wake round itself always runs. The declaration is renewed per
// Round call (each call starts with none), so a node woken early must
// sleep again explicitly, and declarations of round <= current+1 change
// nothing (the next round runs regardless). A declaration beyond the
// largest round budget a run accepts (2^32-2) is clamped to that budget,
// which no run reaches, so it still lasts the whole run. Soundness is the
// node's obligation: the determinism suite runs the same nodes awake, with
// every declaration withdrawn so every round executes for real, and pins
// the sleeping run byte-identical to the awake one, so an unsound
// declaration surfaces as a divergence.
func (e *Env) SleepUntil(round int) {
	if c := e.c; c.id == e.id {
		c.sleepUntil = round
	}
}

// Reject records that the node discarded one inbox frame as malformed.
// Fail-closed protocol decoders call it on every frame they refuse
// (truncated varints, unknown kinds, out-of-range fields), which keeps
// corrupted traffic visible in Stats.Rejected without polluting the
// protocol-level message counters.
func (e *Env) Reject() {
	if c := e.c; c.id == e.id {
		c.rejected++
	}
}

// Send stages one message to neighbour 'to' for delivery next round. It
// enforces the CONGEST constraints: the recipient must be a neighbour, at
// most one message per neighbour per round, and the payload must respect
// the engine's bit limit; and it must be called from the node's own Round
// call. The first violation is recorded and aborts the run; subsequent
// sends become no-ops. The payload is copied into the round buffer of the
// node's span, so the caller may reuse its slice at once.
//
// Finding the neighbour's slot costs O(1) when 'to' is the next neighbour
// in ascending id order after the previous send of the round, and a binary
// search over the node's sorted row otherwise.
func (e *Env) Send(to int, payload []byte) {
	c := e.c
	if c.sendErr != nil {
		return
	}
	if c.id != e.id {
		e.stray()
		return
	}
	g := c.graph
	lo, hi := g.rowOffsets(int(e.id))
	pos := int(c.next)
	if pos >= hi-lo || int(g.sorted[lo+pos]) != to {
		var ok bool
		if pos, ok = g.NeighborIndex(int(e.id), to); !ok {
			c.sendErr = fmt.Errorf("congest: node %d sent to non-neighbour %d", e.id, to)
			return
		}
	}
	if c.bitLimit > 0 && len(payload)*8 > c.bitLimit {
		c.sendErr = fmt.Errorf("congest: node %d message of %d bits exceeds limit %d", e.id, len(payload)*8, c.bitLimit)
		return
	}
	if hi-lo > len(c.sent) {
		c.grow(hi - lo)
	}
	if c.allSent || c.sent[pos] == c.gen {
		c.sendErr = fmt.Errorf("congest: node %d sent twice to %d in one round", e.id, to)
		return
	}
	c.sent[pos] = c.gen
	c.next = int32(pos + 1)
	c.stage(to, payload, hi-lo)
}

// Broadcast stages the same payload to every neighbour, in Neighbors order.
// When nothing is staged yet this round and the payload is within the bit
// limit, no check can fail, so it marks every neighbour as sent (one flag,
// see cursor.allSent) and stages one broadcast record, which the merge
// expands into one message per neighbour in Neighbors order, all sharing
// one payload copy. Otherwise it is one Send per neighbour, which records
// violations and stages a partial broadcast exactly as those Sends would.
func (e *Env) Broadcast(payload []byte) {
	c := e.c
	if c.id != e.id {
		e.stray()
		return
	}
	lo, hi := c.graph.rowOffsets(int(e.id))
	if len(c.out) > 0 || c.sendErr != nil || hi == lo || (c.bitLimit > 0 && len(payload)*8 > c.bitLimit) {
		for _, v := range e.Neighbors() {
			e.Send(int(v), payload)
		}
		return
	}
	c.allSent = true
	c.stage(broadcastTo, payload, hi-lo)
}

// stray records a send made outside the node's own Round call, where the
// span is running another node or none, as a violation: from Init or
// Recover it ends the run before the next round, and from another node's
// Round call it is that call's violation.
func (e *Env) stray() {
	if c := e.c; c.sendErr == nil {
		c.sendErr = fmt.Errorf("congest: node %d sent outside its own Round call", e.id)
	}
}

// broadcastTo is the recipient of a broadcast record: it stands for one
// message to every neighbour of its sender, in Neighbors order. It never
// leaves the engine; every drain expands it (see span.expand).
const broadcastTo = -1

// cursor is what one span shares among all of its nodes' Envs: the run's
// constants, the span's round buffer, and the send state of the node the
// span is running. A span runs one node at a time, so that state needs one
// copy per span, not one per node: begin readies it for a node's Round
// call, and the compute walk moves the call's output into its senders list
// (output) before the next node runs. Each shard of a parallel run has its
// own cursor, written only by the shard's worker.
type cursor struct {
	graph    *Graph
	seed     int64
	bitLimit int
	// buf is the round buffer the span's nodes stage into.
	buf sendBuf
	// id is the node whose Round call is running, or -1 between calls.
	id int32
	// next is the slot after the previous Send's (0 at the start of each
	// call). Send tries it before NeighborIndex's O(log degree) search, so
	// sends in ascending neighbour order find their slot in O(1).
	next    int32
	sendErr error
	// out holds the records staged this call: a window of the span's
	// record chunks with room for Degree records, which bounds them (one
	// message per neighbour per round), taken by the first record of the
	// call (see sendBuf).
	out []Message
	// rejected counts the inbox frames the node's protocol logic refused
	// as malformed (fail-closed decode paths) in this call.
	rejected int64
	// sleepUntil is the node's quiescence declaration for the rounds after
	// this one (see Env.SleepUntil).
	sleepUntil int
	// sent is the once-per-neighbour scratch, indexed by sorted-row
	// position: sent[pos] == gen iff the node sent to that neighbour in
	// this call. It grows with the largest degree that has sent, to at
	// most twice that, and gen grows by one per call, so no call clears it. A gen that wraps to 0 is
	// never used: begin clears the scratch and starts again at 1, so no
	// stale stamp can equal a live gen.
	sent []uint32
	gen  uint32
	// allSent marks a call whose Broadcast took the fast path: every
	// neighbour counts as sent, without stamping the scratch.
	allSent bool
}

// newCursor returns the cursor of a span of a run on g, with no node
// running.
func newCursor(g *Graph, seed int64, bitLimit int) cursor {
	return cursor{graph: g, seed: seed, bitLimit: bitLimit, id: -1}
}

// begin readies the cursor for node id's Round call.
func (c *cursor) begin(id int32) {
	c.id, c.next = id, 0
	c.sendErr, c.out = nil, nil
	c.rejected, c.sleepUntil = 0, 0
	c.allSent = false
	if c.gen++; c.gen == 0 {
		clear(c.sent)
		c.gen = 1
	}
}

// output returns the running node's output of its call, as the drain
// reads it.
func (c *cursor) output() sender {
	return sender{id: c.id, out: c.out, rejected: c.rejected, err: c.sendErr}
}

// grow extends the scratch to at least d slots, keeping the stamps of the
// running call. It at least doubles the scratch, so a run whose sending
// degrees keep rising allocates it O(log degree) times.
func (c *cursor) grow(d int) {
	sent := make([]uint32, max(d, 2*len(c.sent)))
	copy(sent, c.sent)
	c.sent = sent
}

// stage appends one record of the running node, whose degree is d, and
// its payload copy to the node's window of the span's round buffer.
func (c *cursor) stage(to int, payload []byte, d int) {
	b := &c.buf
	if len(c.out) == 0 {
		c.out = b.recs.room(d, chunkSize(c.graph))
	}
	c.out = append(c.out, Message{From: c.id, To: int32(to), Payload: b.copyPayload(payload)})
	b.recs.used++
}

// sender is one node's output of a round's Round call, as the drains read
// it: the records it staged (a window of its span's record chunks, valid
// until the span's next compute walk), its fail-closed rejects and its
// send violation.
type sender struct {
	id       int32
	out      []Message
	rejected int64
	err      error
}

// sendBuf is the send side of one span's round: the records its nodes
// stage, and their payload bytes. A CONGEST node sends at most one message
// per edge per round and a payload is read only in the round after it was
// staged, so one round's traffic is all that has to be live. The records
// are drained by the merge of the round they were staged in, so their
// chunks are rewound at the next compute walk; a span runs one node at a
// time, so each node's records are one contiguous window of them. The
// payload bytes are double-buffered, so that this round's can be staged
// while the recipients read last round's.
type sendBuf struct {
	recs msgChunks
	// payload holds this round's payload bytes; prevPayload last round's,
	// which the recipients are reading this round.
	payload, prevPayload []byte
}

// begin readies the buffer for a compute walk: last round's records are
// drained, and the payloads staged two rounds ago are dead, so their
// storage takes this round's. It is given the capacity of the other
// array, so that the two reach their steady state together instead of
// growing in alternate rounds.
func (b *sendBuf) begin() {
	b.recs.rewind()
	b.payload, b.prevPayload = b.prevPayload[:0], b.payload
	if cap(b.payload) < cap(b.prevPayload) {
		b.payload = make([]byte, 0, cap(b.prevPayload))
	}
}

// minPayloadBuf is the smallest payload array, in bytes.
const minPayloadBuf = 1 << 10

// copyPayload copies p into this round's payload bytes and returns the
// copy, capacity-clamped so that an append by a receiver cannot write into
// the next payload. A full array is replaced by one of double the size
// holding everything staged this round — append's growth for large slices
// is 1.25x, which would reallocate many times before a large span settles
// — so that the array a round ends with can hold that round's payloads and
// the next round of the same size allocates nothing. The payloads staged
// before keep the old array alive until their readers are done. The copy
// is never nil, even when p is empty, because a nil payload means an
// injection to the fault layer's forger.
func (b *sendBuf) copyPayload(p []byte) []byte {
	if cap(b.payload)-len(b.payload) < len(p) || cap(b.payload) == 0 {
		b.payload = slices.Grow(b.payload, max(len(b.payload), len(p), minPayloadBuf))
	}
	n := len(b.payload)
	b.payload = append(b.payload, p...)
	return b.payload[n:len(b.payload):len(b.payload)]
}

// msgChunks is a reusable store of Message blocks that a span carves into
// regions living for one round: the windows its nodes stage records into,
// and the inboxes it delivers to. The blocks are kept across rounds and
// rewound, so a span allocates only while its busiest round so far grows,
// and never copies: a new block is added next to the full ones.
type msgChunks struct {
	blocks [][]Message
	// blocks[cur][:used] is taken this round.
	cur, used int
}

// chunkSize is the size of a new block, in messages: at most 2^14, and
// never more than the graph's directed edge count, so small runs allocate
// one small block.
func chunkSize(g *Graph) int { return min(1<<14, len(g.nbrs)) }

// room returns an empty region with capacity d at the first free slot,
// moving to the next block, or adding one of max(d, size) messages, when
// the current one has less room. The caller advances used by the slots it
// takes, so regions carved one after the other never overlap.
func (c *msgChunks) room(d, size int) []Message {
	for {
		if c.cur == len(c.blocks) {
			c.blocks = append(c.blocks, make([]Message, max(d, size)))
		}
		if b := c.blocks[c.cur]; len(b)-c.used >= d {
			return b[c.used : c.used : c.used+d]
		}
		c.cur++
		c.used = 0
	}
}

// rewind frees every block for the next round.
func (c *msgChunks) rewind() { c.cur, c.used = 0, 0 }
