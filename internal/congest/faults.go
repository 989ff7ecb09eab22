package congest

import (
	"fmt"
	"math/rand"
)

// Faults injects failures into a run. The zero value injects nothing.
// Fault randomness is drawn from its own stream (derived from Config.Seed),
// so a faulty run with all probabilities zero is byte-identical to a
// fault-free run, and the same configuration always yields the same fault
// schedule whether or not Parallel is set, at every shard count
// (invariant I5: fault draws happen in the sequential runner's merge in
// global sender order, and Run never shards a run with faults).
//
// Two families of faults are supported. Probabilistic faults (DropProb,
// DupProb, DelayProb) hit each transmitted message independently.
// Adversarial schedules (CrashAtRound/RecoverAtRound, LinkDowns,
// Partitions, Bursts) are deterministic functions of the configuration and
// model targeted attacks: a cut that silences a region for a window of
// rounds, a node that dies mid-protocol and possibly rejoins with empty
// state. Run validates the whole configuration up front and rejects
// out-of-range probabilities, node ids, and round windows.
type Faults struct {
	// DropProb drops each delivered message independently with this
	// probability. Drops are counted in Stats but never delivered.
	DropProb float64
	// DropUntilRound limits drops to rounds strictly before this round;
	// 0 means drops apply to every round. Protocols with a final
	// commitment step (like the facility-location cleanup) use this to
	// model a lossy steady state with a reliable termination barrier.
	DropUntilRound int
	// CrashAtRound permanently halts node id at the start of the given
	// round: it stops executing and stops receiving. Messages it sent in
	// earlier rounds still deliver.
	CrashAtRound map[int]int
	// RecoverAtRound restarts a crashed node id at the start of the given
	// round with empty protocol state: the node must implement
	// Recoverable, must appear in CrashAtRound, and the recovery round
	// must come strictly after the crash round. Messages addressed to the
	// node while it was down stay lost; the node's environment (identity,
	// neighbour list, private random stream) survives the restart.
	RecoverAtRound map[int]int
	// DupProb duplicates each delivered message independently with this
	// probability: the receiver sees the same message twice in one inbox
	// (adjacent, since inboxes are sorted by sender). Under the reliable
	// shim, wire duplicates are absorbed by the receiver's sequence
	// window and never reach the protocol.
	DupProb float64
	// DelayProb defers each delivered message independently with this
	// probability by 1..MaxDelay extra rounds (drawn uniformly from the
	// fault stream), modelling bounded reordering. MaxDelay must be >= 1
	// when DelayProb > 0.
	DelayProb float64
	// MaxDelay bounds the extra rounds a delayed message can spend in
	// flight.
	MaxDelay int
	// DelayUntilRound limits delays to rounds strictly before this round;
	// 0 means delays apply to every round (mirrors DropUntilRound).
	DelayUntilRound int
	// LinkDowns silence individual links (both directions) for a window
	// of rounds.
	LinkDowns []LinkDown
	// Partitions split the network: every message crossing the cut during
	// the window is dropped.
	Partitions []Partition
	// Bursts drop every message transmitted during the window, modelling
	// correlated outages.
	Bursts []RoundRange
	// CorruptProb mutates each delivered wire transmission independently
	// with this probability: a bit flip, a truncation, or a forged kind
	// byte, drawn deterministically from the fault stream on the caller
	// goroutine (invariant I5). On the plain path the mangled bytes reach
	// the receiver — fail-closed protocol decoders must reject them; under
	// the reliable shim the link layer's framing check (ValidatePayload)
	// discards frames that no longer parse, unacknowledged, so the
	// uncorrupted original is retransmitted. Corrupted transmissions are
	// counted in Stats.Corrupted, never in the protocol Messages/Bits.
	CorruptProb float64
	// CorruptUntilRound limits corruption to rounds strictly before this
	// round; 0 means corruption applies to every round (mirrors
	// DropUntilRound).
	CorruptUntilRound int
	// ByzantineFromRound marks node id as byzantine from the start of the
	// given round: every message its state machine stages is adversarially
	// rewritten by the fault layer, and every neighbour link it leaves
	// silent in a round carries an injected forgery instead. Forged traffic
	// is counted in Stats.Forged and never in the protocol Messages/Bits.
	// Rewrites are drawn independently per recipient, so a byzantine
	// broadcast equivocates by construction. The node's own state machine
	// keeps running honestly — only its wire output is compromised — which
	// models an adversary owning the node's network interface; callers that
	// want the node's final state excluded from results must mask it
	// themselves (core.Solve does, reporting the ids as Byzantine*).
	ByzantineFromRound map[int]int
	// Forger, when non-nil, replaces the generic byzantine mangling with a
	// protocol-aware attack: it is called for every transmission of a
	// byzantine node with the staged payload (orig == nil for an injection
	// on a silent link) and returns the payload to put on the wire, or nil
	// to stay silent. It must be a pure function of its arguments and the
	// draws it takes from rng, and must respect the engine's bit limit
	// (oversized forgeries are truncated). core installs a facility-
	// location-aware forger here (equivocating offers, bogus grants and
	// beacons) when a schedule passed through core.WithFaults names
	// byzantine nodes and leaves Forger nil.
	Forger func(rng *rand.Rand, round, from, to int, orig []byte) []byte
}

// RoundRange is a half-open window of rounds [FromRound, ToRound).
type RoundRange struct {
	FromRound int
	ToRound   int
}

func (r RoundRange) contains(round int) bool {
	return round >= r.FromRound && round < r.ToRound
}

func (r RoundRange) validate(list string, i int) error {
	if r.FromRound < 0 || r.ToRound <= r.FromRound {
		return fmt.Errorf("congest: %s[%d] has empty or negative round window [%d,%d)", list, i, r.FromRound, r.ToRound)
	}
	return nil
}

// LinkDown silences the link between U and V (both directions) during the
// window.
type LinkDown struct {
	U, V int
	RoundRange
}

// Partition drops every message crossing the cut between Side and the rest
// of the network during the window.
type Partition struct {
	Side []int
	RoundRange
}

// active reports whether any fault feature is configured; the engine only
// spins up the fault RNG stream and the fault-aware delivery path when it
// is. Deterministic schedules (crashes, link downs, partitions, bursts)
// count as active even though they draw no randomness, so that a
// schedule-only configuration is actually applied.
func (f *Faults) active() bool {
	return f.DropProb > 0 || f.DupProb > 0 || f.DelayProb > 0 || f.CorruptProb > 0 ||
		len(f.CrashAtRound) > 0 || len(f.RecoverAtRound) > 0 ||
		len(f.ByzantineFromRound) > 0 ||
		len(f.LinkDowns) > 0 || len(f.Partitions) > 0 || len(f.Bursts) > 0
}

// validate rejects configurations that would otherwise silently misbehave:
// probabilities outside [0,1], schedule entries naming nodes outside the
// graph or negative rounds, recoveries without a matching crash, and
// recovery targets that cannot be restarted. Schedule maps are checked by
// an ordered 0..n-1 scan (plus an order-free min-reduction for
// out-of-range keys) so the reported error is deterministic.
func (f *Faults) validate(n int, nodes []Node) error {
	for _, p := range []struct {
		name string
		v    float64
	}{{"DropProb", f.DropProb}, {"DupProb", f.DupProb}, {"DelayProb", f.DelayProb}, {"CorruptProb", f.CorruptProb}} {
		if p.v < 0 || p.v > 1 {
			return fmt.Errorf("congest: %s %v outside [0,1]", p.name, p.v)
		}
	}
	if f.DropUntilRound < 0 {
		return fmt.Errorf("congest: DropUntilRound %d is negative", f.DropUntilRound)
	}
	if f.DelayUntilRound < 0 {
		return fmt.Errorf("congest: DelayUntilRound %d is negative", f.DelayUntilRound)
	}
	if f.CorruptUntilRound < 0 {
		return fmt.Errorf("congest: CorruptUntilRound %d is negative", f.CorruptUntilRound)
	}
	if f.MaxDelay < 0 {
		return fmt.Errorf("congest: MaxDelay %d is negative", f.MaxDelay)
	}
	if f.DelayProb > 0 && f.MaxDelay < 1 {
		return fmt.Errorf("congest: DelayProb %v needs MaxDelay >= 1", f.DelayProb)
	}
	if id, ok := minOutOfRangeKey(f.CrashAtRound, n); ok {
		return fmt.Errorf("congest: CrashAtRound names node %d outside [0,%d)", id, n)
	}
	if id, ok := minOutOfRangeKey(f.RecoverAtRound, n); ok {
		return fmt.Errorf("congest: RecoverAtRound names node %d outside [0,%d)", id, n)
	}
	if id, ok := minOutOfRangeKey(f.ByzantineFromRound, n); ok {
		return fmt.Errorf("congest: ByzantineFromRound names node %d outside [0,%d)", id, n)
	}
	for id := 0; id < n; id++ {
		if at, ok := f.ByzantineFromRound[id]; ok && at < 0 {
			return fmt.Errorf("congest: ByzantineFromRound[%d] = %d is negative", id, at)
		}
	}
	for id := 0; id < n; id++ {
		if at, ok := f.CrashAtRound[id]; ok && at < 0 {
			return fmt.Errorf("congest: CrashAtRound[%d] = %d is negative", id, at)
		}
		at, ok := f.RecoverAtRound[id]
		if !ok {
			continue
		}
		crashAt, crashes := f.CrashAtRound[id]
		if !crashes {
			return fmt.Errorf("congest: RecoverAtRound names node %d with no CrashAtRound entry", id)
		}
		if at <= crashAt {
			return fmt.Errorf("congest: node %d recovers at round %d, not after its crash at round %d", id, at, crashAt)
		}
		if _, ok := nodes[id].(Recoverable); !ok {
			return fmt.Errorf("congest: RecoverAtRound names node %d (%T), which does not implement Recoverable", id, nodes[id])
		}
	}
	for i, l := range f.LinkDowns {
		if l.U < 0 || l.U >= n || l.V < 0 || l.V >= n {
			return fmt.Errorf("congest: LinkDowns[%d] names nodes (%d,%d) outside [0,%d)", i, l.U, l.V, n)
		}
		if err := l.validate("LinkDowns", i); err != nil {
			return err
		}
	}
	for i, p := range f.Partitions {
		for _, id := range p.Side {
			if id < 0 || id >= n {
				return fmt.Errorf("congest: Partitions[%d] names node %d outside [0,%d)", i, id, n)
			}
		}
		if err := p.validate("Partitions", i); err != nil {
			return err
		}
	}
	for i, b := range f.Bursts {
		if err := b.validate("Bursts", i); err != nil {
			return err
		}
	}
	return nil
}

// minOutOfRangeKey reports the smallest key of m outside [0,n), if any.
// A pure min-reduction: the map's iteration order cannot affect the result,
// so the reported error stays deterministic.
func minOutOfRangeKey(m map[int]int, n int) (int, bool) {
	bad, found := 0, false
	for id := range m {
		if (id < 0 || id >= n) && (!found || id < bad) {
			bad, found = id, true
		}
	}
	return bad, found
}

// shouldDrop decides one message's probabilistic fate. Deterministic drops
// (bursts, link downs, partitions) are decided by the compiled schedule
// before any randomness is drawn, so schedule-only configurations consume
// nothing from the fault stream.
func (f *Faults) shouldDrop(rng *rand.Rand, round int) bool {
	if f.DropProb <= 0 {
		return false
	}
	if f.DropUntilRound > 0 && round >= f.DropUntilRound {
		return false
	}
	return rng.Float64() < f.DropProb
}

// delayRounds draws the extra rounds a delivered message spends in flight
// (0 = deliver on time).
func (f *Faults) delayRounds(rng *rand.Rand, round int) int {
	if f.DelayProb <= 0 {
		return 0
	}
	if f.DelayUntilRound > 0 && round >= f.DelayUntilRound {
		return 0
	}
	if rng.Float64() >= f.DelayProb {
		return 0
	}
	return 1 + rng.Intn(f.MaxDelay)
}

// shouldDup decides whether a delivered message is duplicated on the wire.
func (f *Faults) shouldDup(rng *rand.Rand) bool {
	return f.DupProb > 0 && rng.Float64() < f.DupProb
}

// shouldCorrupt decides whether one wire transmission is mutated in flight.
func (f *Faults) shouldCorrupt(rng *rand.Rand, round int) bool {
	if f.CorruptProb <= 0 {
		return false
	}
	if f.CorruptUntilRound > 0 && round >= f.CorruptUntilRound {
		return false
	}
	return rng.Float64() < f.CorruptProb
}

// corruptPayload returns a freshly owned mutation of p: a single flipped
// bit, a truncation to a strict prefix, or a forged kind byte, chosen
// uniformly from the fault stream. The input is never modified — staged
// payloads live in round buffers shared by every recipient (and, under
// the shim, in frames that may be retransmitted intact), so mutating in
// place would corrupt more transmissions than the draw decided. An empty
// payload gains one junk byte so the corruption is observable at all.
func corruptPayload(rng *rand.Rand, p []byte) []byte {
	out := append([]byte(nil), p...)
	if len(out) == 0 {
		return []byte{byte(rng.Intn(256))}
	}
	switch rng.Intn(3) {
	case 0: // flip one bit anywhere in the payload
		i := rng.Intn(len(out) * 8)
		out[i/8] ^= 1 << (i % 8)
	case 1: // truncate to a strict prefix (possibly empty)
		out = out[:rng.Intn(len(out))]
	default: // forge the kind byte
		out[0] = byte(rng.Intn(256))
	}
	return out
}

// forgePayload is the generic byzantine mangling used when Faults.Forger is
// nil: rewrites are corruptPayload mutations of the staged original,
// injections on silent links (orig == nil) are short random frames. Both
// return freshly owned bytes.
func forgePayload(rng *rand.Rand, orig []byte) []byte {
	if orig == nil {
		out := make([]byte, 1+rng.Intn(4))
		for i := range out {
			out[i] = byte(rng.Intn(256))
		}
		return out
	}
	return corruptPayload(rng, orig)
}

// faultSchedule is the compiled deterministic half of Faults: burst
// windows, downed links, and partition cuts with membership precomputed
// for O(1) lookups.
type faultSchedule struct {
	bursts []RoundRange
	links  []LinkDown
	parts  []compiledPartition
}

type compiledPartition struct {
	RoundRange
	side []bool
}

// compile precomputes the deterministic schedules; returns nil when there
// are none so the delivery layer can skip the checks entirely.
func (f *Faults) compile(n int) *faultSchedule {
	if len(f.Bursts) == 0 && len(f.LinkDowns) == 0 && len(f.Partitions) == 0 {
		return nil
	}
	s := &faultSchedule{bursts: f.Bursts, links: f.LinkDowns}
	for _, p := range f.Partitions {
		cp := compiledPartition{RoundRange: p.RoundRange, side: make([]bool, n)}
		for _, id := range p.Side {
			cp.side[id] = true
		}
		s.parts = append(s.parts, cp)
	}
	return s
}

// blocked reports whether the deterministic schedule kills a transmission
// from -> to at the given round.
func (s *faultSchedule) blocked(from, to, round int) bool {
	for _, b := range s.bursts {
		if b.contains(round) {
			return true
		}
	}
	for _, l := range s.links {
		if l.contains(round) && ((l.U == from && l.V == to) || (l.U == to && l.V == from)) {
			return true
		}
	}
	for _, p := range s.parts {
		if p.contains(round) && p.side[from] != p.side[to] {
			return true
		}
	}
	return false
}
