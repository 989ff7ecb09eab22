package core

import (
	"math/bits"
	"slices"

	"dfl/internal/congest"
	"dfl/internal/fl"
)

// Node ids in the communication graph: facility i is node i, client j is
// node m+j. The sub-round layout inside one offer/grant/open iteration:
//
//	sub 0  clients  process CONNECT from the previous iteration,
//	                broadcast DONE once connected
//	sub 1  facilities  process DONE, compute best star under the phase
//	                threshold, send OFFER(priority) to the star's clients
//	sub 2  clients  pick the best OFFER, send GRANT
//	sub 3  facilities  process GRANTs; if the granted star still clears
//	                slack * threshold, open and send CONNECT
//
// After Derived.ProtoRounds rounds, a fixed seven-round tail (see the
// cleanupRounds layout in config.go) connects every remaining client to its
// cheapest facility and runs the self-healing repair pass.

// facilityNode is facility i's state machine.
//
// The hot path is the best-star computation: the sequential reference
// rescanned (and reallocated) the full edge list on every offer iteration.
// Here the node keeps a dense per-edge-position activity index instead of
// hash sets, caches the compacted active prefix (positions + the implied
// cost-prefix sums) together with the resulting best star, and invalidates
// that cache only when the active set actually changes — a DONE or a
// CONNECT removing a client, which are the only events that can move the
// best star (opening charges change only inside connect, which also
// invalidates). Iterations between invalidations reuse the cached star at
// zero scan cost, and recomputations reuse the scratch buffers, so the
// steady state allocates nothing.
//
// Per-edge state is struct-of-arrays: newFacilityNodes lays out one flat
// array per mutable field for the whole run, partitioned by the graph's
// facility-row offsets, and each node holds subslice views into its own
// region. The immutable edge lists are not copied at all: a facility reads
// its connection costs from the instance's cost-sorted row and its client
// ids from the communication graph's rows. The old per-node map (posOf:
// client node id -> edge position) is the graph's id-sorted row searched
// by a forward galloping cursor (seek): the ids a facility looks up arrive
// in ascending order, because inboxes are sorted by sender, so decoding a
// round's messages costs O(log gap) per id, and O(1) when the ids are
// dense, without any hashing or per-node allocation. newFacilityNodes
// fills the edge position of every sorted-row entry for all facilities at
// once by transposing the facility rows through a client-major bucket, in
// time linear in the edge count and without a comparison sort.
type facilityNode struct {
	inst *fl.Instance
	idx  int // facility index == node id
	cfg  Config
	d    Derived

	env *congest.Env
	// The edge list in ascending cost, as views of rows that the instance
	// and the graph hold: edges is the instance's row, so edges[p].Cost is
	// the connection cost at position p, and edgeNode the graph's
	// insertion-order row, which buildGraph fills in the same order, so
	// edgeNode[p] is the client node id at position p.
	edges    []fl.Edge
	edgeNode []int32
	// posOf replacement: nodeSorted is the graph's ascending-id row and
	// posAt the edge position of each entry; seek searches them.
	nodeSorted []int32
	posAt      []int32
	active     []bool // by edge position: client still unconnected, as far as i knows
	open       bool
	copies     int // open copies (soft-capacitated mode; open == copies > 0)
	load       int // clients connected through this facility

	// Cached best star over the active clients; valid while !starDirty.
	starDirty bool
	starPos   []int32 // edge positions of active clients, ascending cost (reused scratch)
	bestLen   int     // prefix of starPos forming the best star; 0 = no active client
	bestNum   int64   // best-star effectiveness numerator (cost + opening charge)
	bestDen   int64   // best-star effectiveness denominator (= star size)
	bestClass int     // quantized class of the best star; -1 = above every threshold

	offeredAt  []bool  // by edge position: offered in the current iteration
	offeredPos []int32 // positions offered this iteration (for O(|offered|) reset)
	offerClass int     // class of the star offered this iteration
	granted    []int32 // scratch: client node ids granted this iteration
	buf        []byte

	// sentry is the sender-quarantine layer (see quarantine.go); nil unless
	// the run's fault schedule includes corruption or byzantine nodes.
	sentry *sentry

	// openedInCleanup reports whether the facility opened only during
	// cleanup, openedInRepair only during the repair pass (used by the
	// report).
	openedInCleanup bool
	openedInRepair  bool
	// done is set when the facility completes its final round; a node that
	// never gets there was crashed by a fault schedule and its state must
	// not reach the solution.
	done bool
}

var (
	_ congest.Node        = (*facilityNode)(nil)
	_ congest.Recoverable = (*facilityNode)(nil)
)

// facBufCap is each facility's slot in the shared encode-buffer block; the
// largest payload it encodes (an OFFER) is maxOfferBits/8 = 10 bytes, so a
// slot never reallocates.
const facBufCap = 16

// newFacilityNodes builds every facility state machine over graph, the
// communication graph buildGraph made of inst, and one shared
// struct-of-arrays allocation: a handful of flat arrays sized by the total
// facility-edge count, partitioned by the facility rows' offsets. Node i's
// views cover its own contiguous region (capacity clamped by three-index
// slicing, so a pathological overflow reallocates privately instead of
// corrupting a neighbour's region). This replaces O(m) separate map/slice
// allocations with O(1) large ones and keeps each facility's whole working
// set on adjacent cache lines.
func newFacilityNodes(inst *fl.Instance, graph *congest.Graph, cfg Config, d Derived) []*facilityNode {
	m := inst.M()
	total := 0
	for i := 0; i < m; i++ {
		total += graph.Degree(i)
	}
	var (
		store      = make([]facilityNode, m)
		out        = make([]*facilityNode, m)
		posAt      = make([]int32, total)
		active     = make([]bool, total)
		offeredAt  = make([]bool, total)
		starPos    = make([]int32, total)
		offeredPos = make([]int32, total)
		granted    = make([]int32, total)
		bufAll     = make([]byte, m*facBufCap)
	)
	for k := range active {
		active[k] = true
	}
	off := 0
	for i := 0; i < m; i++ {
		s, e := off, off+graph.Degree(i)
		store[i] = facilityNode{
			inst:       inst,
			idx:        i,
			cfg:        cfg,
			d:          d,
			edges:      inst.FacilityEdges(i),
			edgeNode:   graph.Neighbors(i),
			nodeSorted: graph.SortedNeighbors(i),
			posAt:      posAt[s:e:e],
			active:     active[s:e:e],
			offeredAt:  offeredAt[s:e:e],
			starDirty:  true,
			starPos:    starPos[s:s:e],
			offeredPos: offeredPos[s:s:e],
			granted:    granted[s:s:e],
			buf:        bufAll[i*facBufCap : i*facBufCap : (i+1)*facBufCap],
		}
		out[i] = &store[i]
		off = e
	}
	fillPosAt(out, graph, m, inst.NC())
	return out
}

// fillPosAt fills every facility's posAt by transposition. A walk over the
// facilities in ascending order buckets each edge position by client, so
// every client's bucket lists its facilities in ascending order — the
// order of the client's sorted row. A walk over the clients in ascending
// order then appends each position to its facility's posAt, which so
// comes out in the order of the facility's sorted row. Both walks are
// linear in the edge count.
func fillPosAt(fs []*facilityNode, graph *congest.Graph, m, nc int) {
	start := make([]int, nc+1)
	for j := 0; j < nc; j++ {
		start[j+1] = start[j] + graph.Degree(m+j)
	}
	byClient := make([]int32, start[nc])
	cur := make([]int, nc)
	copy(cur, start[:nc])
	for _, f := range fs {
		for p, node := range f.edgeNode {
			j := int(node) - m
			byClient[cur[j]] = int32(p)
			cur[j]++
		}
	}
	fill := make([]int, m) // entries written so far in each facility's posAt
	for j := 0; j < nc; j++ {
		for q, i := range graph.SortedNeighbors(m + j) {
			fs[i].posAt[fill[i]] = byClient[start[j]+q]
			fill[i]++
		}
	}
}

// seek returns the edge position of the given client node id, the
// struct-of-arrays replacement for the old posOf map. *at is a cursor that
// one pass over a list of ids carries from lookup to lookup, starting at
// 0; each lookup leaves it at the first nodeSorted entry not below the id.
// An id at or above the previous one is found by galloping forward from
// the cursor, in O(log distance); an id below it (forged or screened
// traffic out of order) restarts the search at the front, so no order of
// the ids makes a lookup miss.
func (f *facilityNode) seek(at *int, node int32) (int, bool) {
	ids := f.nodeSorted
	k := *at
	if k > 0 && ids[k-1] >= node {
		k = 0
	}
	// Gallop: probe k, k+1, k+3, k+7, ... while the probed id is below
	// node; every id before the new k is then below node too, and node's
	// place is at most the last probe.
	hi, step := k, 1
	for hi < len(ids) && ids[hi] < node {
		k = hi + 1
		hi += step
		step <<= 1
	}
	j, ok := slices.BinarySearch(ids[k:min(hi+1, len(ids))], node)
	k += j
	*at = k
	if !ok {
		return 0, false
	}
	return int(f.posAt[k]), true
}

// deactivate removes the client at edge position pos from the active set
// and invalidates the cached best star. It is the only way the active set
// shrinks.
func (f *facilityNode) deactivate(pos int) {
	if !f.active[pos] {
		return
	}
	f.active[pos] = false
	f.starDirty = true
}

func (f *facilityNode) Init(env *congest.Env) { f.env = env }

// Recover resets the facility to its post-Init state after an injected
// crash: every client is active again, the facility is closed and empty.
// The environment (identity, neighbours, rng) survives in the engine.
func (f *facilityNode) Recover() {
	for pos := range f.active {
		f.active[pos] = true
	}
	f.open, f.copies, f.load = false, 0, 0
	f.starDirty = true
	for _, pos := range f.offeredPos {
		f.offeredAt[pos] = false
	}
	f.offeredPos = f.offeredPos[:0]
	f.offerClass = 0
	f.granted = f.granted[:0]
	f.openedInCleanup, f.openedInRepair, f.done = false, false, false
	// The sentry survives the restart like the engine's link-layer state:
	// quarantine models the node's network stack, not protocol state.
}

func (f *facilityNode) Round(r int, inbox []congest.Message) bool {
	if f.sentry != nil {
		inbox = f.screenFacility(inbox)
	}
	if r >= f.d.ProtoRounds {
		return f.cleanupRound(r, inbox)
	}
	switch r % 4 {
	case 1:
		f.processDone(inbox)
		f.makeOffer(r)
		f.declareOfferSleep(r)
	case 3:
		f.processGrants(r, inbox)
		// Next action round is the following makeOffer; the DONE-collection
		// round in between only matters when DONEs actually arrive, and an
		// arrival wakes us.
		f.env.SleepUntil(r + 2)
	}
	return false
}

// declareOfferSleep tells the engine how long the facility's rounds are
// provably no-ops after an offer decision (see congest.Env.SleepUntil; a
// test run of the same nodes kept awake executes those rounds, which is
// what pins the declarations as sound). The rules mirror makeOffer's early returns: having offered, the
// only upcoming work is the GRANT round at r+2. Having not offered, nothing
// happens on an empty inbox until the first offer round of the phase whose
// threshold admits the cached star — phases advance with the round number
// alone, and every input of the star cache can change only via a message,
// which wakes us. A star above every threshold (bestClass < 0) or an empty
// active set can become eligible only through a message too, so those sleep
// to the cleanup tail. The tail bound is P+3, the beacon broadcast every
// facility owes; the FORCE-answer round P+1 is message-driven and a FORCE
// wakes us for it.
//
// Soundness of the RNG stream: makeOffer draws a priority only after its
// early returns, each node owns a private stream, and the declaration
// covers exactly rounds where makeOffer would early-return (phaseOf is
// monotone in r), so skipped rounds draw nothing in the awake run either.
func (f *facilityNode) declareOfferSleep(r int) {
	if len(f.offeredPos) > 0 {
		f.env.SleepUntil(r + 2)
		return
	}
	wake := f.d.ProtoRounds + 3
	if f.bestLen > 0 && f.bestClass > f.phaseOf(r) {
		if at := 4*f.bestClass*f.d.ItersPerPhase + 1; at < wake {
			wake = at
		}
	}
	f.env.SleepUntil(wake)
}

func (f *facilityNode) processDone(inbox []congest.Message) {
	at := 0
	for _, msg := range inbox {
		if len(msg.Payload) == 1 && msg.Payload[0] == kindDone {
			if pos, ok := f.seek(&at, msg.From); ok {
				f.deactivate(pos)
			}
		}
	}
}

// phaseOf maps a protocol round to its threshold phase.
func (f *facilityNode) phaseOf(r int) int {
	iter := r / 4
	p := iter / f.d.ItersPerPhase
	if p >= f.d.Phases {
		p = f.d.Phases - 1
	}
	return p
}

// makeOffer quantizes the facility's BEST star against active clients into
// its effectiveness class and, if the current phase has reached that class,
// offers exactly that star. Offering the best prefix (rather than any
// prefix within the class) is what keeps the distributed run tracking the
// sequential greedy: a facility never claims clients beyond the point that
// minimizes its cost-effectiveness. The class rides along in the OFFER so
// clients can prefer better stars.
//
// The star is served from the incremental cache: recomputeBestStar runs
// only after an invalidation (a DONE or CONNECT shrank the active set),
// otherwise the iteration reuses the cached prefix verbatim.
func (f *facilityNode) makeOffer(r int) {
	for _, pos := range f.offeredPos {
		f.offeredAt[pos] = false
	}
	f.offeredPos = f.offeredPos[:0]
	if f.starDirty {
		f.recomputeBestStar()
	}
	if f.bestLen == 0 || f.bestClass < 0 || f.bestClass > f.phaseOf(r) {
		return // no star, or not yet eligible in this phase
	}
	f.offerClass = f.bestClass
	var prio uint32
	if f.cfg.DeterministicPriorities {
		prio = uint32(f.idx)
	} else {
		prio = f.env.Rand().Uint32()
	}
	fine := bits.Len64(uint64(f.bestNum / f.bestDen))
	payload := encodeOffer(f.buf, f.bestClass, fine, prio)
	f.buf = payload
	for _, pos := range f.starPos[:f.bestLen] {
		f.offeredAt[pos] = true
		f.offeredPos = append(f.offeredPos, pos)
		f.env.Send(int(f.edgeNode[pos]), payload)
	}
}

// recomputeBestStar rebuilds the cached best star: one scan over the
// cost-sorted edge list compacts the active positions into starPos while
// tracking the prefix minimizing (openingCharge + cost-prefix sum) / size.
// In uncapacitated mode the opening charge is f once (zero if already
// open); in soft-capacitated mode every copy the prefix spills into is
// charged again. The resulting star and its quantized class stay valid
// until the active set changes, because every input of this scan — the
// active flags, open/load/copies, the thresholds — is constant in between.
func (f *facilityNode) recomputeBestStar() {
	f.starDirty = false
	f.starPos = f.starPos[:0]
	f.bestLen, f.bestNum, f.bestDen, f.bestClass = 0, 0, 0, -1
	var sum, t int64
	for pos := range f.edgeNode {
		if !f.active[pos] {
			continue
		}
		f.starPos = append(f.starPos, int32(pos))
		sum = fl.AddSat(sum, f.edges[pos].Cost)
		t++
		total := fl.AddSat(sum, f.openingCharge(int(t)))
		if f.bestLen == 0 || fl.RatioLess(total, t, f.bestNum, f.bestDen) {
			f.bestNum, f.bestDen = total, t
			f.bestLen = len(f.starPos)
		}
	}
	if f.bestLen == 0 {
		return
	}
	for q := 0; q < f.d.Phases; q++ {
		if fl.RatioLessEq(f.bestNum, f.bestDen, f.d.Threshold(q), 1) {
			f.bestClass = q
			return
		}
	}
}

// openingCharge returns what connecting `extra` additional clients costs
// in opening fees: f once in uncapacitated mode (zero when already open),
// or one f per newly required copy in soft-capacitated mode.
func (f *facilityNode) openingCharge(extra int) int64 {
	fi := f.inst.FacilityCost(f.idx)
	if f.cfg.SoftCapacity <= 0 {
		if f.open {
			return 0
		}
		return fi
	}
	newCopies := fl.CopiesNeeded(f.load+extra, f.cfg.SoftCapacity) - f.copies
	if newCopies < 0 {
		newCopies = 0
	}
	return fl.MulSat(int64(newCopies), fi)
}

// processGrants opens the facility if the granted sub-star is still within
// slack of the phase threshold, and connects the granted clients.
func (f *facilityNode) processGrants(r int, inbox []congest.Message) {
	granted := f.granted[:0]
	var sum int64
	lastGrant := int32(-1)
	at := 0
	for _, msg := range inbox {
		if len(msg.Payload) != 1 || msg.Payload[0] != kindGrant {
			continue
		}
		// Wire duplicates arrive adjacent (inboxes are sorted by sender), so
		// a repeated sender marks a duplication artifact, not new evidence.
		dup := msg.From == lastGrant
		lastGrant = msg.From
		pos, ok := f.seek(&at, msg.From)
		if !ok || !f.offeredAt[pos] {
			// Stale, duplicated, or forged grant. A grant that answers no
			// live offer is soft evidence against the sender: honest clients
			// only grant what was offered, but drop/delay faults can strand
			// an honest grant too, so condemnation takes a threshold.
			if f.sentry != nil && !dup {
				f.sentry.suspect(int(msg.From), 1, staleGrantThreshold)
			}
			continue
		}
		// Consuming the offer slot makes a duplicated GRANT (wire-level
		// duplication fault) indistinguishable from a stale one.
		f.offeredAt[pos] = false
		granted = append(granted, msg.From)
		sum = fl.AddSat(sum, f.edges[pos].Cost)
	}
	f.granted = granted
	if len(granted) == 0 {
		return
	}
	// The opening budget is tied to the class the offer was made at, not
	// the phase threshold, so late phases cannot launder bad stars.
	budget := fl.MulSat(fl.MulSat(f.d.Threshold(f.offerClass), f.cfg.Slack), int64(len(granted)))
	if fl.AddSat(f.openingCharge(len(granted)), sum) > budget {
		return // the star shrank too much; clients time out and stay active
	}
	f.connect(granted)
}

// connect commits a set of clients, in ascending id order: accounts
// copies/load, marks the facility open, and sends CONNECT.
func (f *facilityNode) connect(nodes []int32) {
	f.load += len(nodes)
	if f.cfg.SoftCapacity > 0 {
		if need := fl.CopiesNeeded(f.load, f.cfg.SoftCapacity); need > f.copies {
			f.copies = need
		}
	} else if f.copies == 0 {
		f.copies = 1
	}
	f.open = true
	at := 0
	for _, node := range nodes {
		if pos, ok := f.seek(&at, node); ok {
			f.deactivate(pos)
		}
		f.env.Send(int(node), payloadConnect)
	}
}

// cleanupRound handles the fixed tail (see the cleanupRounds layout in
// config.go): answer FORCE at P+1, broadcast the repair beacon at P+3,
// settle repair joins and forces at P+5, then halt.
func (f *facilityNode) cleanupRound(r int, inbox []congest.Message) bool {
	switch rr := r - f.d.ProtoRounds; {
	case rr < 3:
		if rr == 1 {
			f.connectForced(inbox, kindForce, &f.openedInCleanup)
		}
		// Until the beacon round the facility only answers FORCEs, and a
		// FORCE wakes it; the beacon broadcast at P+3 is unconditional.
		f.env.SleepUntil(f.d.ProtoRounds + 3)
	case rr == 3:
		// Proof of life plus open status: clients decide the repair pass
		// entirely from these beacons, so a crashed facility (no beacon)
		// and a recovered-but-closed one (closed beacon) both trigger
		// reassignment.
		b := encodeBeacon(f.buf, f.open)
		f.buf = b
		f.env.Broadcast(b)
		// The repair settle at P+5 must run (it commits done and halts).
		f.env.SleepUntil(f.d.ProtoRounds + 5)
	case rr == 4:
		f.env.SleepUntil(f.d.ProtoRounds + 5)
	case rr >= 5:
		// rr > 5 only happens to a facility recovered after the repair
		// settle: it halts immediately, without done, so the masking pass
		// treats it as dead.
		if rr == 5 {
			f.processRepair(inbox)
			f.done = true
		}
		return true
	}
	return false
}

// connectForced opens for the clients that forced this facility and
// connects them. Wire-level duplicates arrive adjacent (inboxes are sorted
// by sender) and are folded, which keeps connect's one-send-per-client
// contract intact. The granted scratch is free in the cleanup tail, so the
// forced list reuses it.
func (f *facilityNode) connectForced(inbox []congest.Message, kind byte, openedFlag *bool) {
	forced := f.granted[:0]
	for _, msg := range inbox {
		if len(msg.Payload) != 1 || msg.Payload[0] != kind {
			continue
		}
		if len(forced) > 0 && forced[len(forced)-1] == int32(msg.From) {
			continue // duplicated force
		}
		forced = append(forced, int32(msg.From))
	}
	f.granted = forced
	if len(forced) == 0 {
		return
	}
	if !f.open {
		*openedFlag = true
	}
	f.connect(forced)
}

// processRepair settles the repair pass on the facility side: REPAIR-JOIN
// clients unilaterally joined this (open) facility and only need load and
// copy accounting; REPAIR-FORCE clients found no open facility alive and
// are connected the same way the cleanup fallback connects them.
func (f *facilityNode) processRepair(inbox []congest.Message) {
	joins := 0
	last := int32(-1)
	for _, msg := range inbox {
		if len(msg.Payload) != 1 || msg.Payload[0] != kindRepairJoin || msg.From == last {
			continue
		}
		last = msg.From
		joins++
	}
	if joins > 0 {
		f.load += joins
		if f.cfg.SoftCapacity > 0 {
			if need := fl.CopiesNeeded(f.load, f.cfg.SoftCapacity); need > f.copies {
				f.copies = need
			}
		}
	}
	f.connectForced(inbox, kindRepairForce, &f.openedInRepair)
}

// clientNode is client j's state machine.
type clientNode struct {
	inst *fl.Instance
	idx  int // client index; node id is m+idx
	cfg  Config
	d    Derived

	env       *congest.Env
	assigned  int  // facility index, or fl.Unassigned
	announced bool // DONE broadcast performed
	granted   int  // facility node id granted this iteration, or -1

	// cleanupConnected reports whether the client only connected via the
	// cleanup fallback; repairConnected whether the repair pass had to
	// reassign it (both used by the report).
	cleanupConnected bool
	repairConnected  bool
	// repairForced is set while the client waits for the CONNECT that
	// answers its REPAIR-FORCE.
	repairForced bool
	// done is set when the client completes its final round; a node that
	// never gets there was crashed by a fault schedule and its assignment
	// must not reach the solution.
	done bool

	// sentry is the sender-quarantine layer (see quarantine.go); nil unless
	// the run's fault schedule includes corruption or byzantine nodes.
	sentry *sentry
}

var (
	_ congest.Node        = (*clientNode)(nil)
	_ congest.Recoverable = (*clientNode)(nil)
)

// newClientNodes builds every client state machine in one flat allocation;
// clients carry no per-edge state, so a single contiguous store is the
// whole struct-of-arrays story on this side.
func newClientNodes(inst *fl.Instance, cfg Config, d Derived) []*clientNode {
	store := make([]clientNode, inst.NC())
	out := make([]*clientNode, inst.NC())
	for j := range store {
		store[j] = clientNode{
			inst:     inst,
			idx:      j,
			cfg:      cfg,
			d:        d,
			assigned: fl.Unassigned,
			granted:  -1,
		}
		out[j] = &store[j]
	}
	return out
}

func (c *clientNode) Init(env *congest.Env) { c.env = env }

// Recover resets the client to its post-Init state after an injected
// crash: unassigned, unannounced, holding no grant.
func (c *clientNode) Recover() {
	c.assigned = fl.Unassigned
	c.announced = false
	c.granted = -1
	c.cleanupConnected = false
	c.repairConnected = false
	c.repairForced = false
	c.done = false
	// The sentry survives the restart like the engine's link-layer state:
	// quarantine models the node's network stack, not protocol state.
}

func (c *clientNode) Round(r int, inbox []congest.Message) bool {
	if c.sentry != nil {
		inbox = c.screenClient(r, inbox)
	}
	switch {
	case r == c.d.ProtoRounds:
		// Last chance to absorb a CONNECT from the final iteration, then
		// fall back to the cheapest facility.
		c.processConnect(inbox, false)
		if c.assigned == fl.Unassigned {
			c.sendForce()
		}
		// Between here and the repair decision at P+4 the client only
		// absorbs CONNECTs, and a CONNECT wakes it (see Env.SleepUntil;
		// empty-inbox cleanup rounds are no-ops for an assigned and
		// unassigned client alike).
		c.env.SleepUntil(c.d.ProtoRounds + 4)
		return false
	case r == c.d.ProtoRounds+1:
		c.env.SleepUntil(c.d.ProtoRounds + 4)
		return false // facilities answer FORCE this round
	case r == c.d.ProtoRounds+2:
		c.processConnect(inbox, true)
		c.env.SleepUntil(c.d.ProtoRounds + 4)
		return false // stay for the repair pass
	case r == c.d.ProtoRounds+3:
		return false // facilities broadcast repair beacons this round
	case r == c.d.ProtoRounds+4:
		c.repairRound(inbox)
		// The halt round at P+6 must run; P+5 is the facilities' turn.
		c.env.SleepUntil(c.d.ProtoRounds + 6)
		return false
	case r == c.d.ProtoRounds+5:
		return false // the forced facility answers this round
	case r >= c.d.ProtoRounds+6:
		// Every client halts here, forced or not, so the termination
		// round is schedule-fixed at TotalRounds.
		if c.repairForced {
			c.processConnect(inbox, true)
			if c.assigned != fl.Unassigned {
				c.repairConnected = true
			}
		}
		c.done = true
		return true
	}
	switch r % 4 {
	case 0:
		c.processConnect(inbox, false)
		if c.assigned != fl.Unassigned && !c.announced {
			c.announceDone()
		}
		c.declareClientSleep(r)
	case 2:
		c.pickOffer(inbox)
		c.declareClientSleep(r)
	}
	return false
}

// declareClientSleep covers the client's provable no-op rounds during the
// phase sweep (see congest.Env.SleepUntil). A connected, announced client is
// done until the repair decision at P+4: processConnect and pickOffer both
// early-return once assigned, the cleanup fallback rounds skip assigned
// clients, and any message (a spurious OFFER from a facility that missed our
// DONE, forged traffic) wakes it for a round that changes nothing. An
// unconnected client acts every other round — the round in between belongs
// to the facilities — so it skips just that one. Clients draw no randomness
// anywhere, so the declarations cannot touch an RNG stream.
func (c *clientNode) declareClientSleep(r int) {
	if c.assigned != fl.Unassigned && c.announced {
		c.env.SleepUntil(c.d.ProtoRounds + 4)
		return
	}
	c.env.SleepUntil(r + 2)
}

func (c *clientNode) processConnect(inbox []congest.Message, cleanup bool) {
	for _, msg := range inbox {
		if len(msg.Payload) != 1 || msg.Payload[0] != kindConnect {
			continue
		}
		if c.assigned != fl.Unassigned {
			continue
		}
		if !cleanup && int(msg.From) != c.granted {
			continue // only the facility we granted may connect us
		}
		c.assigned = int(msg.From) // facility node id == facility index
		c.cleanupConnected = cleanup
	}
	if c.sentry != nil && !cleanup && c.granted != -1 && c.assigned == fl.Unassigned {
		// The granted facility never connected us. A lure-offer attack —
		// a byzantine facility winning grants it has no intention of
		// serving — looks exactly like this, but so does an honest facility
		// whose star shrank below its opening budget or whose CONNECT was
		// dropped, so condemnation takes repeated misses.
		c.sentry.suspect(c.granted, 1, grantMissThreshold)
	}
	c.granted = -1
}

// sendForce asks the cheapest facility the client still trusts to open for
// it (the cleanup fallback). Without a sentry that is simply the cheapest
// edge; with one, quarantined facilities are passed over — forcing a
// condemned facility would hand the adversary the client's last resort.
func (c *clientNode) sendForce() {
	if c.sentry == nil {
		if e, ok := c.inst.CheapestEdge(c.idx); ok {
			c.env.Send(e.To, payloadForce)
		}
		return
	}
	for _, e := range c.inst.ClientEdges(c.idx) {
		if !c.sentry.isQuarantined(e.To) { // facility index == node id
			c.env.Send(e.To, payloadForce)
			return
		}
	}
}

func (c *clientNode) announceDone() {
	for _, v := range c.env.Neighbors() {
		if int(v) == c.assigned {
			continue
		}
		c.env.Send(int(v), payloadDone)
	}
	c.announced = true
}

// pickOffer grants the best OFFER: lowest effectiveness class first (better
// stars win), then — with the FineGrainedTieBreak extension — the lowest
// log2-quantized effectiveness, then highest random priority (symmetry
// breaking), then lowest facility id (determinism).
func (c *clientNode) pickOffer(inbox []congest.Message) {
	if c.assigned != fl.Unassigned {
		return
	}
	best := -1
	bestClass, bestFine := 0, 0
	var bestPrio uint32
	for _, msg := range inbox {
		class, fine, prio, err := decodeOffer(msg.Payload)
		if err != nil {
			continue
		}
		if !c.cfg.FineGrainedTieBreak {
			fine = 0
		}
		better := best == -1 ||
			class < bestClass ||
			(class == bestClass && fine < bestFine) ||
			(class == bestClass && fine == bestFine && prio > bestPrio) ||
			(class == bestClass && fine == bestFine && prio == bestPrio && int(msg.From) < best)
		if better {
			best, bestClass, bestFine, bestPrio = int(msg.From), class, fine, prio
		}
	}
	if best == -1 {
		return
	}
	c.granted = best
	c.env.Send(best, payloadGrant)
}

// repairRound is the client half of the self-healing pass. The beacons
// broadcast at P+3 are the client's complete view: a facility with no
// beacon is dead, a closed beacon means the facility lost its open state
// (it crashed and recovered). A served client — assigned to a facility
// whose beacon says open — halts immediately. An unserved one (facility
// crashed, or its GRANT/CONNECT was lost on the wire) deterministically
// reconnects to the cheapest open facility in reach with a unilateral
// REPAIR-JOIN; if no open facility is alive it asks the cheapest alive one
// to open with REPAIR-FORCE and stays one more exchange for the CONNECT.
// A client whose every facility is dead is unservable under this fault
// schedule: it halts unassigned and the certifier exempts it.
func (c *clientNode) repairRound(inbox []congest.Message) {
	if c.assigned != fl.Unassigned {
		if _, open := beaconFrom(inbox, c.assigned); open {
			return // served: the assignment survived the faults
		}
	}
	c.assigned = fl.Unassigned
	for _, e := range c.inst.ClientEdges(c.idx) {
		if _, open := beaconFrom(inbox, e.To); open { // facility index == facility node id
			c.assigned = e.To
			c.repairConnected = true
			c.env.Send(e.To, payloadRepairJoin)
			return
		}
	}
	for _, e := range c.inst.ClientEdges(c.idx) {
		if alive, _ := beaconFrom(inbox, e.To); alive {
			c.repairForced = true
			c.env.Send(e.To, payloadRepairForce)
			return
		}
	}
	// Every facility in reach is dead: the client is unservable under
	// this fault schedule; it halts unassigned and the certifier
	// exempts it.
}

// beaconFrom reads facility f's repair beacons out of a beacon-round inbox,
// which arrives sorted by sender id: a binary search finds f's first frame,
// and its adjacent duplicates (wire duplication) are OR-ed together. alive
// reports that one of them decodes, open that one decodes as open; a frame
// that does not decode counts for nothing (fail closed).
func beaconFrom(inbox []congest.Message, f int) (alive, open bool) {
	i, _ := slices.BinarySearchFunc(inbox, f, func(m congest.Message, f int) int { return int(m.From) - f })
	for ; i < len(inbox) && int(inbox[i].From) == f; i++ {
		if o, ok := decodeBeacon(inbox[i].Payload); ok {
			alive = true
			open = open || o
		}
	}
	return alive, open
}
