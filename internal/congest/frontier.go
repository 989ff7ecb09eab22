package congest

import (
	"cmp"
	"slices"
)

// frontier is the active-set bookkeeping of the sparse round scheduler: it
// tracks which nodes must actually run, send, or be cleared each round, so
// steady-state per-round cost is O(active + delivered) instead of O(n).
// Every span of an execution owns one frontier over its nodes, including
// the sleep state of those nodes, so a shard worker's frontier writes touch
// nothing another worker reads.
//
// A node is in exactly one place at a time: the sorted active list (it
// runs every round), or parked with its asleep flag set (a SleepUntil
// declaration is in force), or out entirely (halted or crashed). Wakes —
// timer expiry, message delivery, crash recovery — stage the id in woken;
// admitWoken merges the batch back into the active list before the next
// compute walk, preserving ascending-id execution order (invariant I5).
type frontier struct {
	// lo is the smallest id the frontier schedules. slots is indexed by
	// id-lo and covers the ids from lo to the largest scheduled id, which
	// is the whole span for a contiguous shard.
	lo int
	// slots holds each node's sleep state: the asleep flag Env.SleepUntil
	// sets and the node's one pending timer (see wakeSlot).
	slots []wakeSlot
	// active holds the runnable node ids in ascending order; the compute
	// walk compacts halting, crashing, and sleeping nodes out in place.
	active []int32
	// woken stages ids to re-admit before the next compute walk. Entries
	// are unique by construction: a message or timer wake fires only while
	// the node's asleep flag is set (and clears it), and a recovery revive
	// fires only for a node that left the active list when it crashed.
	woken []int32
	// timers is the calendar of pending wakes: one row per distinct round
	// some timer fires at, in ascending round order, each heading a FIFO
	// list of node slots linked through wakeSlot.next/prev. A node has at
	// most one timer, so the lists hold at most one entry per node and the
	// table only as many rows as there are distinct pending rounds — a
	// handful for a phase-structured protocol, whatever n is.
	timers []wakeRound
	// senders lists, in ascending id order, this round's merge-relevant
	// nodes: staged output, a recorded send violation, or a fail-closed
	// reject counter to drain. The compute walk appends; the merge resets.
	senders []int32
	// recips lists the nodes whose inboxes were filled this round; the
	// next round's admitWoken wakes those that sleep, and its merge clears
	// exactly those inboxes instead of ranging over all n.
	recips []int32
}

// wakeSlot is one node's sleep state. at, when non-zero, is the round of
// the node's pending timer, and next/prev link the node into that round's
// list (as id-lo, -1 at either end); 0 is "no timer" (park is only ever
// called with until >= 2). The timer outlives an early wake: a node that is
// delivery-woken and re-parks for a later round keeps it, and so wakes
// early — a no-op round under the SleepUntil contract — instead of being
// relinked every round.
type wakeSlot struct {
	at         uint32
	next, prev int32
	// asleep marks a node parked by Env.SleepUntil.
	asleep bool
}

// wakeRound is one row of the timer calendar: the nodes whose timers fire
// at round at, from head to tail in link order, count of them.
type wakeRound struct {
	at                uint32
	head, tail, count int32
}

// newFrontier returns a frontier scheduling the ascending ids active, with
// sleep state covering them.
func newFrontier(active []int32) *frontier {
	f := &frontier{active: active}
	if len(active) > 0 {
		f.lo = int(active[0])
		f.slots = make([]wakeSlot, int(active[len(active)-1])-f.lo+1)
	}
	return f
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
// earlier, via a pending timer — a contractual no-op round). A declaration
// beyond the largest round budget is clamped to it: no run reaches that
// round, so the timer never fires either way.
func (f *frontier) park(id int32, until int) {
	i := int32(int(id) - f.lo)
	s := &f.slots[i]
	s.asleep = true
	at := uint32(min(int64(until), maxRoundBudget))
	if s.at != 0 {
		if s.at <= at {
			return
		}
		f.unlink(i)
	}
	f.link(i, at)
}

// row returns the index of the timer row for round at, or where to insert
// it, and whether it exists.
func (f *frontier) row(at uint32) (int, bool) {
	return slices.BinarySearchFunc(f.timers, at, func(w wakeRound, at uint32) int {
		return cmp.Compare(w.at, at)
	})
}

// link appends slot i, which has no timer, to the list of round at.
func (f *frontier) link(i int32, at uint32) {
	k, ok := f.row(at)
	if !ok {
		f.timers = slices.Insert(f.timers, k, wakeRound{at: at, head: -1, tail: -1})
	}
	w, s := &f.timers[k], &f.slots[i]
	s.at, s.next, s.prev = at, -1, w.tail
	if w.tail >= 0 {
		f.slots[w.tail].next = i
	} else {
		w.head = i
	}
	w.tail = i
	w.count++
}

// unlink removes slot i's pending timer from its round's list, dropping
// the row when the list empties.
func (f *frontier) unlink(i int32) {
	s := &f.slots[i]
	k, _ := f.row(s.at)
	w := &f.timers[k]
	if s.prev >= 0 {
		f.slots[s.prev].next = s.next
	} else {
		w.head = s.next
	}
	if s.next >= 0 {
		f.slots[s.next].prev = s.prev
	} else {
		w.tail = s.prev
	}
	s.at = 0
	if w.count--; w.count == 0 {
		f.timers = slices.Delete(f.timers, k, k+1)
	}
}

// dropCrashed clears a node's sleep state when its crash fires: its
// pending timer is unlinked and a sleeping node forgets its declaration.
// An active node stays listed until the crash round's compute walk, which
// keeps no halted id; a recovery comes at least one round after its crash
// (Faults.validate), so that walk always runs before revive re-admits it.
func (f *frontier) dropCrashed(id int32) {
	i := int32(int(id) - f.lo)
	s := &f.slots[i]
	if s.at != 0 {
		f.unlink(i)
	}
	s.asleep = false
}

// admitWoken fires the timers due at round, wakes the sleepers the last
// merge delivered to, and merges the woken batch back into the sorted
// active list. Called at the start of each compute walk. A wake admits
// only a node that is asleep: one already active, crashed, or woken
// earlier this round is left untouched, which is what makes a timer that
// outlived an early wake and repeated deliveries harmless. Each due list
// is walked once and its row dropped, and woken is grown once per list to
// the list's count, so a round that wakes many nodes does not grow it by
// repeated appends.
func (f *frontier) admitWoken(round int) {
	slots, lo := f.slots, int32(f.lo)
	due := 0
	for ; due < len(f.timers) && int(f.timers[due].at) <= round; due++ {
		w := f.timers[due]
		f.woken = slices.Grow(f.woken, int(w.count))
		for i := w.head; i >= 0; i = slots[i].next {
			s := &slots[i]
			s.at = 0
			if s.asleep {
				s.asleep = false
				f.woken = append(f.woken, lo+i)
			}
		}
	}
	f.timers = slices.Delete(f.timers, 0, due)
	for _, id := range f.recips {
		if s := &slots[id-lo]; s.asleep {
			s.asleep = false
			f.woken = append(f.woken, id)
		}
	}
	if len(f.woken) == 0 {
		return
	}
	slices.Sort(f.woken)
	f.active = mergeSortedIDs(f.active, f.woken)
	f.woken = f.woken[:0]
}

// clearInboxes resets exactly the inboxes filled last round to nil. The
// recips list is complete by construction — every delivery path records a
// recipient's first message of the round, and only a recipient with a
// message is given a region — so any inbox not listed is already nil, and
// the per-round clearing cost is O(delivered), not O(n).
func (f *frontier) clearInboxes(inboxes [][]Message) {
	for _, id := range f.recips {
		inboxes[id] = nil
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
