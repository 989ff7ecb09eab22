// Package congest simulates the CONGEST model of distributed computing:
// a synchronous message-passing network in which every node may send one
// bounded-size message per neighbour per round.
//
// The engine runs an arbitrary set of Node state machines on an undirected
// communication graph. Two runners are provided — a deterministic
// sequential one and a topology-sharded parallel one (nodes statically
// partitioned into edge-cut-minimizing shards, one persistent worker per
// shard, delivery merged per destination shard) — and both produce
// byte-identical executions for the same configuration and any shard
// count, which the test suite verifies. Message and bit counts,
// per-message size limits, and halt detection are built in.
package congest

import (
	"fmt"
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
// neighbour id for O(log degree) adjacency queries.
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
	nbrs      []int
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
// error from FinalizeChecked). Adding an edge to a frozen graph is an error.
func (g *Graph) AddEdge(u, v int) error {
	if g.frozen {
		return fmt.Errorf("congest: AddEdge(%d,%d) on frozen graph", u, v)
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
// slice-of-slices builder used; a stamp array dedups each row in one pass.
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
	nbrs := make([]int, rowStart[n])
	cur := make([]int, n)
	copy(cur, rowStart[:n])
	for k := range g.pendU {
		u, v := g.pendU[k], g.pendV[k]
		nbrs[cur[u]] = v
		cur[u]++
		nbrs[cur[v]] = u
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
	g.edgeCount = write / 2
	g.sorted = make([]int32, write)
	for u := 0; u < n; u++ {
		row := g.sorted[newStart[u]:newStart[u+1]]
		for k := range row {
			row[k] = int32(g.nbrs[newStart[u]+k])
		}
		slices.Sort(row)
	}
	g.pendU, g.pendV = nil, nil
	g.frozen = true
}

// Neighbors returns the neighbour list of u in insertion order. Shared
// storage: callers must not modify the returned slice.
func (g *Graph) Neighbors(u int) []int {
	g.Finalize()
	return g.nbrs[g.rowStart[u]:g.rowStart[u+1]]
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

// Bipartite builds the communication graph of a facility-location instance:
// facilities occupy node ids 0..m-1 and clients m..m+nc-1; each (facility i,
// client j) pair in edges becomes a communication edge. The returned graph
// is already frozen; duplicate pairs are an error.
func Bipartite(m, nc int, edges func(yield func(facility, client int) bool)) (*Graph, error) {
	g := NewGraph(m + nc)
	var err error
	edges(func(i, j int) bool {
		if e := g.AddEdge(i, m+j); e != nil {
			err = e
			return false
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	if err := g.FinalizeChecked(); err != nil {
		return nil, err
	}
	return g, nil
}

// Message is one payload in flight. From and To are node ids; the payload
// size (in bits) is charged against the model's message-size budget.
type Message struct {
	From    int
	To      int
	Payload []byte
}

// Bits returns the payload size in bits.
func (m Message) Bits() int { return len(m.Payload) * 8 }

// Node is one distributed state machine. Init is called exactly once before
// round 0 with the node's private environment. Round is called once per
// round with the messages sent to this node in the previous round, sorted
// by ascending sender id; it returns true when the node halts. A halted
// node receives no further Round calls; messages addressed to it are
// delivered to nobody but still counted. Inbox messages (including their
// payload bytes, which live in per-sender round arenas) are valid only for
// the duration of the Round call — a node must copy anything it keeps.
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
// The engine allocates all Env state up front in flat per-run arrays —
// the Env structs themselves, the once-per-neighbour generation stamps,
// and the payload arenas — partitioned by the frozen graph's CSR offsets,
// so nodes owned by one shard occupy contiguous memory (ids within a shard
// are near-contiguous) and steady-state rounds allocate nothing.
type Env struct {
	id    int
	graph *Graph
	// seed derives the node's private RNG stream; rng itself is built
	// lazily on first Rand() call. A math/rand source alone is ~5 KiB, so
	// eager construction would dominate engine memory in the million-node
	// regime — and most nodes (clients, benchmark chatter) never draw.
	seed     int64
	rng      *rand.Rand
	out      []Message
	bitLimit int
	sendErr  error
	// sentGen records, per neighbour position (NeighborIndex order), the
	// round generation in which that neighbour was last sent to; comparing
	// against gen makes the once-per-neighbour check O(log degree) per send
	// with no per-round clearing. A view into the engine's flat array.
	sentGen []uint64
	gen     uint64
	// arena holds the payload bytes staged this round; prevArena holds the
	// previous round's payloads, which recipients are reading this round.
	// beginRound swaps them, so steady-state sends allocate nothing. A
	// payload is therefore valid only until the end of the round it is
	// delivered in — receivers must copy bytes they want to keep. Both are
	// capacity-sized views into flat per-run blocks; a node that outgrows
	// its slot falls back to a private allocation transparently.
	arena     []byte
	prevArena []byte
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
func (e *Env) ID() int { return e.id }

// Neighbors returns the node's neighbour list (shared storage, do not
// modify).
func (e *Env) Neighbors() []int { return e.graph.Neighbors(e.id) }

// Degree returns the node's degree.
func (e *Env) Degree() int { return e.graph.Degree(e.id) }

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
// (the next round runs regardless). Soundness is the node's obligation:
// the engine's dense reference
// mode (Config.Dense) ignores the declaration and executes every round for
// real, and the determinism suite pins frontier runs byte-identical to it,
// so an unsound declaration surfaces as an I5 digest divergence.
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
// run; subsequent sends become no-ops.
func (e *Env) Send(to int, payload []byte) {
	if e.sendErr != nil {
		return
	}
	pos, ok := e.graph.NeighborIndex(e.id, to)
	if !ok {
		e.sendErr = fmt.Errorf("congest: node %d sent to non-neighbour %d", e.id, to)
		return
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
	// Copy the payload into the round arena so node-local buffers can be
	// reused by the caller without a per-message allocation. If the append
	// grows the arena, slices handed out earlier keep pointing into the old
	// backing array, which stays valid (and immutable) until collected.
	n := len(e.arena)
	e.arena = append(e.arena, payload...)
	e.out = append(e.out, Message{From: e.id, To: to, Payload: e.arena[n:len(e.arena):len(e.arena)]})
}

// Broadcast stages the same payload to every neighbour.
func (e *Env) Broadcast(payload []byte) {
	for _, v := range e.Neighbors() {
		e.Send(v, payload)
	}
}

func (e *Env) beginRound() {
	e.out = e.out[:0]
	e.rejected = 0
	e.gen++
	e.sleepUntil = 0
	// Double-buffer swap: the payloads staged last round (e.arena) are
	// being read by their recipients during this round, so they move to
	// prevArena; the round before last's payloads are dead and their
	// storage becomes this round's staging arena.
	e.arena, e.prevArena = e.prevArena[:0], e.arena
}
