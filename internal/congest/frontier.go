package congest

import "slices"

// frontier is the active-set bookkeeping of the sparse round scheduler: it
// tracks which nodes must actually run, send, or be cleared each round, so
// steady-state per-round cost is O(active + delivered) instead of O(n).
// Every span of an execution owns one frontier over its nodes, including
// the sleep state of those nodes, so a shard worker's frontier writes touch
// nothing another worker reads. A parallel run whose merge stays on the
// caller goroutine adds a caller-side frontier that owns only the recipient
// list and hands each wake to the frontier of the node's shard.
//
// A node is in exactly one place at a time: the sorted active list (it
// runs every round), or parked with its asleep flag set (a SleepUntil
// declaration is in force), or out entirely (halted or crashed). Wakes —
// timer expiry, message delivery, crash recovery — stage the id in woken;
// admitWoken merges the batch back into the active list before the next
// compute walk, preserving ascending-id execution order (invariant I5).
type frontier struct {
	// lo is the smallest id the frontier schedules. asleep and timerAt are
	// indexed by id-lo and cover the ids from lo to the largest scheduled
	// id, which is the whole span for a contiguous shard.
	lo int
	// asleep marks nodes parked by Env.SleepUntil.
	asleep []bool
	// active holds the runnable node ids in ascending order; the compute
	// walk compacts halting, crashing, and sleeping nodes out in place.
	active []int32
	// woken stages ids to re-admit before the next compute walk. Entries
	// are unique by construction: a message or timer wake fires only while
	// the node's asleep flag is set (and clears it), and a recovery revive
	// fires only for a node that left the active list when it crashed.
	woken []int32
	// timers is a min-heap of (round, id) wake calls with lazy
	// invalidation: an entry whose node was woken early (or crashed) pops
	// as a no-op because the node's asleep flag is already clear.
	timers wakeHeap
	// timerAt[id-lo], when non-zero, is the round of a live heap entry for
	// id (the minimum one this frontier knows of). park skips the push when
	// an existing entry already fires no later than the new declaration —
	// the node wakes early, which the SleepUntil contract makes a no-op — so
	// a node that is delivery-woken and re-parks every round contributes one
	// heap entry, not one per round. 0 is "unset" (park is only ever called
	// with until >= 2).
	timerAt []int
	// senders lists, in ascending id order, this round's merge-relevant
	// nodes: staged output, a recorded send violation, or a fail-closed
	// reject counter to drain. The compute walk appends; the merge resets.
	senders []int32
	// recips lists the nodes whose inboxes were filled this round; the
	// next round's admitWoken wakes those that sleep, and its merge clears
	// exactly those inboxes instead of ranging over all n.
	recips []int32
	// onWake, when set, takes every wake of the caller-side frontier of a
	// serial-merge pool, which schedules no node itself, to the frontier of
	// the node's shard. nil on every frontier that schedules nodes.
	onWake func(id int32)
}

// newFrontier returns a frontier scheduling the ascending ids active, with
// sleep state covering them.
func newFrontier(active []int32) *frontier {
	f := &frontier{active: active}
	if len(active) > 0 {
		f.lo = int(active[0])
		size := int(active[len(active)-1]) - f.lo + 1
		f.asleep, f.timerAt = make([]bool, size), make([]int, size)
	}
	return f
}

// wake re-admits a sleeping node (message delivery or timer expiry). A
// node that is not asleep — already active, crashed, or woken earlier this
// round — is left untouched, which is what makes stale timer entries and
// repeated deliveries harmless.
func (f *frontier) wake(id int32) {
	if f.onWake != nil {
		f.onWake(id)
		return
	}
	if i := int(id) - f.lo; f.asleep[i] {
		f.asleep[i] = false
		f.woken = append(f.woken, id)
	}
}

// revive stages a recovered node for re-admission. The caller guarantees
// the node is in no list (it was removed from active when its crash fired,
// and crashing cleared any sleep state).
func (f *frontier) revive(id int32) {
	f.woken = append(f.woken, id)
}

// park records a SleepUntil declaration: the node leaves the active list
// (the compute walk drops it) and a timer guarantees it runs again no
// later than the declared round even if no message arrives first (possibly
// earlier, via a pre-existing entry — a contractual no-op round).
func (f *frontier) park(id int32, until int) {
	i := int(id) - f.lo
	f.asleep[i] = true
	if t := f.timerAt[i]; t != 0 && t <= until {
		return
	}
	f.timerAt[i] = until
	f.timers.push(wakeEntry{at: until, id: id})
}

// dropCrashed removes a node from the frontier when its crash fires:
// a sleeping node just forgets its declaration (stale timer entries
// lazily no-op), an active node is deleted from the sorted list so a
// same-round recovery cannot re-admit it twice.
func (f *frontier) dropCrashed(id int32) {
	if i := int(id) - f.lo; f.asleep[i] {
		f.asleep[i] = false
		return
	}
	if i, ok := slices.BinarySearch(f.active, id); ok {
		f.active = append(f.active[:i], f.active[i+1:]...)
	}
}

// admitWoken fires the timers due at round, wakes the sleepers the last
// merge delivered to, and merges the woken batch back into the sorted
// active list. Called at the start of each compute walk.
func (f *frontier) admitWoken(round int) {
	for len(f.timers) > 0 && f.timers[0].at <= round {
		e := f.timers[0]
		f.timers.pop()
		if i := int(e.id) - f.lo; f.timerAt[i] == e.at {
			f.timerAt[i] = 0
		}
		f.wake(e.id)
	}
	for _, id := range f.recips {
		f.wake(id)
	}
	if len(f.woken) == 0 {
		return
	}
	slices.Sort(f.woken)
	f.active = mergeSortedIDs(f.active, f.woken)
	f.woken = f.woken[:0]
}

// clearInboxes resets exactly the inboxes filled last round. The recips
// list is complete by construction — every delivery path records a
// recipient's first message of the round — so any inbox not listed is
// already empty, and the per-round clearing cost is O(delivered), not O(n).
func (f *frontier) clearInboxes(inboxes [][]Message) {
	for _, id := range f.recips {
		inboxes[id] = inboxes[id][:0]
	}
	f.recips = f.recips[:0]
}

// mergeSortedIDs merges the sorted, disjoint batch into the sorted list in
// place (backward merge over the grown slice), returning the merged list.
func mergeSortedIDs(list, batch []int32) []int32 {
	n, m := len(list), len(batch)
	list = append(list, batch...)
	i, j := n-1, m-1
	for k := n + m - 1; j >= 0; k-- {
		if i >= 0 && list[i] > batch[j] {
			list[k] = list[i]
			i--
		} else {
			list[k] = batch[j]
			j--
		}
	}
	return list
}

// wakeEntry is one scheduled timer wake: node id runs again at round at.
type wakeEntry struct {
	at int
	id int32
}

// wakeHeap is a hand-rolled binary min-heap of wakeEntry ordered by round
// then id (container/heap would box an interface per push on the round
// path). Ties never matter for execution order — admitWoken sorts the
// woken batch — but the fixed order keeps pops deterministic.
type wakeHeap []wakeEntry

func (h wakeHeap) less(a, b wakeEntry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.id < b.id
}

func (h *wakeHeap) push(e wakeEntry) {
	*h = append(*h, e)
	q := *h
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(q[i], q[parent]) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
}

// pop removes the root; the caller has already read it from (*h)[0].
func (h *wakeHeap) pop() {
	q := *h
	last := len(q) - 1
	q[0] = q[last]
	q = q[:last]
	*h = q
	i := 0
	for {
		l, r, m := 2*i+1, 2*i+2, i
		if l < last && q.less(q[l], q[m]) {
			m = l
		}
		if r < last && q.less(q[r], q[m]) {
			m = r
		}
		if m == i {
			break
		}
		q[i], q[m] = q[m], q[i]
		i = m
	}
}
