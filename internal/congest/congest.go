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
// count, which the test suite verifies; a run with faults or an observer
// takes the sequential runner. Message and bit counts,
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
// transposing the deduplicated rows in O(edges), without a sort. Bipartite
// skips the builder phase and fills both arrays straight from its walks.
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
	g.transpose(cur, false)
}

// transpose fills the sorted rows from the frozen insertion-order rows and
// freezes the graph; cur is scratch of n entries. Walking u ascending and
// appending u to the sorted row of each of its neighbours leaves every
// sorted row ascending, because the adjacency is symmetric (v is in u's
// row iff u is in v's). A duplicate edge (u, v) therefore shows up as u
// written twice in a row into v's sorted row; with checkDup set, transpose
// reports the first one it meets, in walk order.
func (g *Graph) transpose(cur []int, checkDup bool) (dupU, dupV int, dup bool) {
	n, rowStart, nbrs := g.n, g.rowStart, g.nbrs
	sorted := make([]int32, len(nbrs))
	copy(cur, rowStart[:n])
	for u := 0; u < n; u++ {
		for _, v := range nbrs[rowStart[u]:rowStart[u+1]] {
			k := cur[v]
			if checkDup && !dup && k > rowStart[v] && sorted[k-1] == int32(u) {
				dupU, dupV, dup = u, int(v), true
			}
			sorted[k] = int32(u)
			cur[v]++
		}
	}
	g.sorted = sorted
	g.edgeCount = len(nbrs) / 2
	g.frozen = true
	return dupU, dupV, dup
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

// HasEdge reports whether u and v are adjacent.
func (g *Graph) HasEdge(u, v int) bool {
	_, ok := g.NeighborIndex(u, v)
	return ok
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

// Bipartite builds the communication graph of a facility-location instance:
// facilities occupy node ids 0..m-1 and clients m..m+nc-1; each (facility i,
// client j) pair in edges becomes a communication edge. The returned graph
// is already frozen, with each row in the order edges yields its pairs.
//
// edges is walked twice and writes straight into the CSR arrays: the first
// walk counts every row's degree, the second fills the rows, and the
// transpose into sorted rows follows. No pair list is staged. A pair out of
// range, a duplicate pair, and a second walk that does not yield the same
// per-row degrees as the first are errors, as is a node count beyond the
// int32 id space, which is rejected before anything is allocated.
func Bipartite(m, nc int, edges func(yield func(facility, client int) bool)) (*Graph, error) {
	if m < 0 || nc < 0 || m > math.MaxInt32-nc {
		return nil, fmt.Errorf("congest: bipartite graph of %d+%d nodes exceeds the int32 id space", m, nc)
	}
	n := m + nc
	var err error
	inRange := func(i, j int) bool {
		if i < 0 || i >= m || j < 0 || j >= nc {
			err = fmt.Errorf("congest: edge (%d,%d) out of range [0,%d)", i, m+j, n)
			return false
		}
		return true
	}
	rowStart := make([]int, n+1)
	edges(func(i, j int) bool {
		if !inRange(i, j) {
			return false
		}
		rowStart[i+1]++
		rowStart[m+j+1]++
		return true
	})
	if err != nil {
		return nil, err
	}
	for u := 0; u < n; u++ {
		rowStart[u+1] += rowStart[u]
	}
	g := &Graph{n: n, rowStart: rowStart, nbrs: make([]int32, rowStart[n])}
	cur := make([]int, n)
	copy(cur, rowStart[:n])
	edges(func(i, j int) bool {
		if !inRange(i, j) {
			return false
		}
		u, v := i, m+j
		if cur[u] == rowStart[u+1] || cur[v] == rowStart[v+1] {
			err = errBipartiteReplay
			return false
		}
		g.nbrs[cur[u]] = int32(v)
		cur[u]++
		g.nbrs[cur[v]] = int32(u)
		cur[v]++
		return true
	})
	if err != nil {
		return nil, err
	}
	for u := 0; u < n; u++ {
		if cur[u] != rowStart[u+1] {
			return nil, errBipartiteReplay
		}
	}
	if u, v, dup := g.transpose(cur, true); dup {
		return nil, fmt.Errorf("congest: duplicate edge (%d,%d)", u, v)
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
type Node interface {
	Init(env *Env)
	Round(round int, inbox []Message) (halt bool)
}

// Recoverable is a Node that can rejoin after an injected crash
// (Faults.RecoverAtRound). Recover is called by the engine at the start of
// the recovery round and must reset the node to its post-Init state: all
// protocol state is lost, while the environment — identity, neighbour
// list, private random stream — survives the restart. Messages addressed
// to the node while it was down stay lost.
type Recoverable interface {
	Node
	Recover()
}

// Env is a node's private handle to the network: its identity, neighbour
// list, deterministic private randomness, and staged outgoing messages.
//
// The engine allocates the Env structs and the once-per-neighbour
// generation stamps (4 bytes per directed edge) up front in flat per-run
// arrays, partitioned by the frozen graph's CSR offsets, so nodes owned by
// one shard occupy
// contiguous memory (ids within a shard are near-contiguous). Staged
// messages and their payload bytes live in the round buffers of the span
// that runs the node (sendBuf), which hold one round's traffic and are
// reused every round, so steady-state rounds allocate nothing.
type Env struct {
	graph *Graph
	// seed derives the node's private RNG stream; rng itself is built
	// lazily on first Rand() call. A math/rand source alone is ~5 KiB, so
	// eager construction would dominate engine memory in the million-node
	// regime — and most nodes (clients, benchmark chatter) never draw.
	seed     int64
	rng      *rand.Rand
	bitLimit int
	// sentGen records, per neighbour position (NeighborIndex order), the
	// round generation in which that neighbour was last sent to; comparing
	// against gen makes the once-per-neighbour check one load per send with
	// no per-round clearing. A view into the engine's flat array, one slot
	// per neighbour, so its length is the degree. A generation grows by one
	// per round the node runs, so Run's round budget keeps it below 2^32
	// (see maxRoundBudget).
	sentGen []uint32
	// buf is the round buffer of the span that runs the node, shared with
	// every other node of that span.
	buf *sendBuf
	// id is the node's id, an int32 like the ids of the graph's sorted
	// rows, so that next shares its word.
	id int32
	// The fields from next on are the ones every node that runs touches in
	// a round (beginRound, the compute walk's check for output), kept
	// together so that a round over many nodes touches few cache lines of
	// each Env.
	//
	// next is the slot after the previous Send's (0 at the start of each
	// round). Send tries it before NeighborIndex's O(log degree) search,
	// so sends in ascending neighbour order find their slot in O(1);
	// Broadcast's fast path stamps every slot without searching.
	next    int32
	sendErr error
	// out holds the records staged this round: a window of the span's
	// record chunks with room for Degree records, which bounds them (one
	// message per neighbour per round), taken by the first record of the
	// round (see sendBuf).
	out []Message
	gen uint32
	// rejected counts inbox frames this node's protocol logic refused as
	// malformed (fail-closed decode paths) in its current round. The drain
	// of the deterministic merge adds it to Stats.Rejected — on the caller
	// goroutine, or on the owning shard's worker in the sharded merge — so
	// the counter is a plain int under every runner; beginRound resets it.
	rejected int64
	// sleepUntil is the node's quiescence declaration for the rounds after
	// this one (see SleepUntil); beginRound resets it, so the declaration
	// expires with the Round call that made it.
	sleepUntil int
}

// ID returns the node's id.
func (e *Env) ID() int { return int(e.id) }

// Neighbors returns the node's neighbour list in the graph's insertion
// order (shared storage, do not modify).
func (e *Env) Neighbors() []int32 { return e.graph.Neighbors(int(e.id)) }

// Degree returns the node's degree.
func (e *Env) Degree() int { return e.graph.Degree(int(e.id)) }

// Rand returns the node's private deterministic random source,
// constructing it on first use. Laziness is unobservable to the
// protocol: the stream is a pure function of the node seed, not of
// construction time, so a node that draws sees exactly the sequence the
// eager engine produced — and a node that never draws costs no source
// state.
func (e *Env) Rand() *rand.Rand {
	if e.rng == nil {
		e.rng = rand.New(rand.NewSource(e.seed))
	}
	return e.rng
}

// SleepUntil declares that this node's Round calls are no-ops — no state
// change, no sends, no Rand() draws — for every round after the current one
// and before the given round, as long as its inbox stays empty. The
// frontier scheduler then skips those Round calls entirely; a message
// delivery wakes the node in time to run the round the message arrives in,
// and the wake round itself always runs. The declaration is renewed per
// Round call (beginRound clears it), so a node woken early must sleep
// again explicitly, and declarations of round <= current+1 change nothing
// (the next round runs regardless). A declaration beyond the largest round
// budget a run accepts (2^32-2) is clamped to that budget, which no run
// reaches, so it still lasts the whole run. Soundness is the node's
// obligation: the determinism suite runs the same nodes awake, with every
// declaration withdrawn so every round executes for real, and pins the
// sleeping run byte-identical to the awake one, so an unsound declaration
// surfaces as a divergence.
func (e *Env) SleepUntil(round int) { e.sleepUntil = round }

// Reject records that the node discarded one inbox frame as malformed.
// Fail-closed protocol decoders call it on every frame they refuse
// (truncated varints, unknown kinds, out-of-range fields), which keeps
// corrupted traffic visible in Stats.Rejected without polluting the
// protocol-level message counters.
func (e *Env) Reject() { e.rejected++ }

// Send stages one message to neighbour 'to' for delivery next round. It
// enforces the CONGEST constraints: the recipient must be a neighbour, at
// most one message per neighbour per round, and the payload must respect
// the engine's bit limit. The first violation is recorded and aborts the
// run; subsequent sends become no-ops. The payload is copied into the
// round buffer of the node's span, so the caller may reuse its slice at
// once.
//
// Finding the neighbour's slot costs O(1) when 'to' is the next neighbour
// in ascending id order after the previous send of the round, and a binary
// search over the node's sorted row otherwise.
func (e *Env) Send(to int, payload []byte) {
	if e.sendErr != nil {
		return
	}
	pos := int(e.next)
	if pos >= len(e.sentGen) || int(e.graph.sorted[e.graph.rowStart[e.id]+pos]) != to {
		var ok bool
		if pos, ok = e.graph.NeighborIndex(int(e.id), to); !ok {
			e.sendErr = fmt.Errorf("congest: node %d sent to non-neighbour %d", e.id, to)
			return
		}
	}
	if e.bitLimit > 0 && len(payload)*8 > e.bitLimit {
		e.sendErr = fmt.Errorf("congest: node %d message of %d bits exceeds limit %d", e.id, len(payload)*8, e.bitLimit)
		return
	}
	if e.sentGen[pos] == e.gen {
		e.sendErr = fmt.Errorf("congest: node %d sent twice to %d in one round", e.id, to)
		return
	}
	e.sentGen[pos] = e.gen
	e.next = int32(pos + 1)
	e.stage(to, payload)
}

// Broadcast stages the same payload to every neighbour, in Neighbors order.
// When nothing is staged yet this round and the payload is within the bit
// limit, no check can fail, so it stamps every neighbour as sent and
// stages one broadcast record, which the merge expands into one message
// per neighbour in Neighbors order, all sharing one payload copy.
// Otherwise it is one Send per neighbour, which records violations and
// stages a partial broadcast exactly as those Sends would.
func (e *Env) Broadcast(payload []byte) {
	if len(e.out) > 0 || e.sendErr != nil || len(e.sentGen) == 0 || (e.bitLimit > 0 && len(payload)*8 > e.bitLimit) {
		for _, v := range e.Neighbors() {
			e.Send(int(v), payload)
		}
		return
	}
	for k := range e.sentGen {
		e.sentGen[k] = e.gen
	}
	e.stage(broadcastTo, payload)
}

// broadcastTo is the recipient of a broadcast record: it stands for one
// message to every neighbour of its sender, in Neighbors order. It never
// leaves the engine; every drain expands it (see span.expand).
const broadcastTo = -1

// stage appends one record and its payload copy to the node's window of
// the span's round buffer.
func (e *Env) stage(to int, payload []byte) {
	b := e.buf
	if len(e.out) == 0 {
		e.out = b.recs.room(len(e.sentGen), chunkSize(e.graph))
	}
	e.out = append(e.out, Message{From: e.id, To: int32(to), Payload: b.copyPayload(payload)})
	b.recs.used++
}

func (e *Env) beginRound() {
	e.out = nil
	e.rejected = 0
	e.gen++
	e.next = 0
	e.sleepUntil = 0
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
