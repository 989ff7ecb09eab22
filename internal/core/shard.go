package core

import (
	"encoding/binary"
	"errors"
	"fmt"

	"dfl/internal/congest"
	"dfl/internal/fl"
)

// This file is the protocol's distributed-deployment seam: SolveShard runs
// one shard of the node population against a congest.Transport, Fragment
// carries the shard's committed result (with a compact fail-closed wire
// codec for shipping it to the coordinator), and Assemble reconstitutes the
// global solution from whichever fragments survived — masking the nodes of
// shards that died exactly like crashed nodes, and exempting the clients
// they orphaned, so the assembled run still ends in core.Certify.

// FacilityState is a facility's committed result inside a Fragment.
type FacilityState struct {
	Done            bool
	Open            bool
	OpenedInCleanup bool
}

// ClientState is a client's committed result inside a Fragment.
type ClientState struct {
	Done             bool
	CleanupConnected bool
	RepairConnected  bool
	Assigned         int // facility index, or fl.Unassigned
}

// Fragment is one shard's contribution to a distributed run: the final
// state of every node in its span plus the shard-local network stats.
// Facilities holds the facilities with node id in [Span.Lo, Span.Hi) in
// ascending id order; Clients likewise for client nodes (id m+j).
type Fragment struct {
	Span       congest.Span
	Stats      congest.Stats
	Facilities []FacilityState
	Clients    []ClientState
}

// SolveShard runs the shard of the uncapacitated protocol owning the node
// ids in span (facility i is node i, client j is node m+j) against tr. All
// shards of a deployment must use the same instance, cfg and seed; the
// execution is then byte-identical to the in-process runners whenever the
// transport delivers every message, so a fault-free deployment reproduces
// Solve's solution exactly. Faults are whatever the real network does —
// lost datagrams degrade the run like injected drops, and the repair tail
// plus Assemble's masking absorb dead peers. For a shard that should
// survive being killed, use SolveShardCheckpointed and ResumeShard.
func SolveShard(inst *fl.Instance, cfg Config, span congest.Span, seed int64, tr congest.Transport) (*Fragment, error) {
	if cfg.SoftCapacity > 0 {
		return nil, errors.New("core: SolveShard is uncapacitated")
	}
	r, err := newRun(inst, cfg)
	if err != nil {
		return nil, err
	}
	m, nc := inst.M(), inst.NC()
	if span.Lo < 0 || span.Hi > m+nc || span.Lo >= span.Hi {
		return nil, fmt.Errorf("core: shard span [%d,%d) out of range [0,%d)", span.Lo, span.Hi, m+nc)
	}
	r.graph.Finalize()
	stats, err := congest.RunShard(r.graph, r.nodes, span, congest.Config{
		BitLimit:  congest.SuggestedBitLimit(r.graph.N()),
		Seed:      seed,
		MaxRounds: r.d.TotalRounds + 4,
	}, tr)
	if err != nil {
		return nil, fmt.Errorf("core: shard [%d,%d): %w", span.Lo, span.Hi, err)
	}
	frag := &Fragment{Span: span, Stats: stats}
	for id := span.Lo; id < min(span.Hi, m); id++ {
		frag.Facilities = append(frag.Facilities, r.facility(id))
	}
	for id := max(span.Lo, m); id < span.Hi; id++ {
		frag.Clients = append(frag.Clients, r.client(id-m))
	}
	return frag, nil
}

// Fragment wire codec: the RESULT bodies cmd/flnode ships to its gateway.
// Layout (all integers uvarint unless noted):
//
//	lo | hi | rounds | messages | bits | maxMessageBits | rejected
//	then one record per node id in [lo, hi) ascending:
//	  facility (id < m):  flags byte (bit0 done, bit1 open, bit2 cleanup)
//	  client   (id >= m): flags byte (bit0 done, bit1 cleanup, bit2 repair,
//	                      bit3 assigned) | assigned facility uvarint iff bit3
//
// Decoding is fail-closed in the repo's usual sense: any spare bit, short
// read, out-of-range id or trailing byte rejects the whole fragment.

const (
	fragFacDone    = 1 << 0
	fragFacOpen    = 1 << 1
	fragFacCleanup = 1 << 2

	fragCliDone     = 1 << 0
	fragCliCleanup  = 1 << 1
	fragCliRepair   = 1 << 2
	fragCliAssigned = 1 << 3
)

// Encode appends the fragment's wire form to buf.
func (f *Fragment) Encode(buf []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(f.Span.Lo))
	buf = binary.AppendUvarint(buf, uint64(f.Span.Hi))
	buf = binary.AppendUvarint(buf, uint64(f.Stats.Rounds))
	buf = binary.AppendUvarint(buf, uint64(f.Stats.Messages))
	buf = binary.AppendUvarint(buf, uint64(f.Stats.Bits))
	buf = binary.AppendUvarint(buf, uint64(f.Stats.MaxMessageBits))
	buf = binary.AppendUvarint(buf, uint64(f.Stats.Rejected))
	for _, fs := range f.Facilities {
		var flags byte
		if fs.Done {
			flags |= fragFacDone
		}
		if fs.Open {
			flags |= fragFacOpen
		}
		if fs.OpenedInCleanup {
			flags |= fragFacCleanup
		}
		buf = append(buf, flags)
	}
	for _, cs := range f.Clients {
		var flags byte
		if cs.Done {
			flags |= fragCliDone
		}
		if cs.CleanupConnected {
			flags |= fragCliCleanup
		}
		if cs.RepairConnected {
			flags |= fragCliRepair
		}
		if cs.Assigned != fl.Unassigned {
			flags |= fragCliAssigned
		}
		buf = append(buf, flags)
		if cs.Assigned != fl.Unassigned {
			buf = binary.AppendUvarint(buf, uint64(cs.Assigned))
		}
	}
	return buf
}

// DecodeFragment parses an Encode'd fragment for an instance with m
// facilities and nc clients, rejecting anything malformed.
func DecodeFragment(p []byte, m, nc int) (*Fragment, error) {
	next := func() (uint64, error) {
		v, n := binary.Uvarint(p)
		if n <= 0 {
			return 0, errors.New("core: fragment: truncated uvarint")
		}
		p = p[n:]
		return v, nil
	}
	var hdr [7]uint64
	for i := range hdr {
		v, err := next()
		if err != nil {
			return nil, err
		}
		hdr[i] = v
	}
	lo, hi := int(hdr[0]), int(hdr[1])
	if lo < 0 || hi > m+nc || lo >= hi {
		return nil, fmt.Errorf("core: fragment: span [%d,%d) out of range [0,%d)", lo, hi, m+nc)
	}
	frag := &Fragment{
		Span: congest.Span{Lo: lo, Hi: hi},
		Stats: congest.Stats{
			Rounds:         int(hdr[2]),
			Messages:       int64(hdr[3]),
			Bits:           int64(hdr[4]),
			MaxMessageBits: int(hdr[5]),
			Rejected:       int64(hdr[6]),
		},
	}
	for id := lo; id < hi; id++ {
		if len(p) == 0 {
			return nil, fmt.Errorf("core: fragment: truncated at node %d", id)
		}
		flags := p[0]
		p = p[1:]
		if id < m {
			if flags&^byte(fragFacDone|fragFacOpen|fragFacCleanup) != 0 {
				return nil, fmt.Errorf("core: fragment: facility %d has spare flag bits %#x", id, flags)
			}
			frag.Facilities = append(frag.Facilities, FacilityState{
				Done:            flags&fragFacDone != 0,
				Open:            flags&fragFacOpen != 0,
				OpenedInCleanup: flags&fragFacCleanup != 0,
			})
			continue
		}
		if flags&^byte(fragCliDone|fragCliCleanup|fragCliRepair|fragCliAssigned) != 0 {
			return nil, fmt.Errorf("core: fragment: client %d has spare flag bits %#x", id-m, flags)
		}
		cs := ClientState{
			Done:             flags&fragCliDone != 0,
			CleanupConnected: flags&fragCliCleanup != 0,
			RepairConnected:  flags&fragCliRepair != 0,
			Assigned:         fl.Unassigned,
		}
		if flags&fragCliAssigned != 0 {
			v, err := next()
			if err != nil {
				return nil, err
			}
			if v >= uint64(m) {
				return nil, fmt.Errorf("core: fragment: client %d assigned to facility %d outside [0,%d)", id-m, v, m)
			}
			cs.Assigned = int(v)
		}
		frag.Clients = append(frag.Clients, cs)
	}
	if len(p) != 0 {
		return nil, fmt.Errorf("core: fragment: %d trailing bytes", len(p))
	}
	return frag, nil
}

// Assemble reconstitutes the global solution of a distributed run from the
// fragments that survived it. Every node id not covered by any fragment
// belonged to a shard declared down: its facilities are masked closed and
// listed in DeadFacilities, its clients masked unassigned and listed in
// DeadClients — exactly the crash masking of the in-process path. A
// surviving client whose committed assignment points at a masked-dead
// facility (the facility's shard died after the CONNECT, too late for the
// repair tail to renegotiate) is masked unassigned and listed in
// OrphanedClients; the certifier exempts it. That orphan rule is the one
// way Assemble's result pass (settle, shared with Solve) differs from
// Solve's. The assembled solution is certified before it is returned, so a
// successful Assemble carries the same guarantee as Solve: every honest
// servable client on a surviving shard is served or exempt.
func Assemble(inst *fl.Instance, cfg Config, frags []*Fragment) (*fl.Solution, *Report, error) {
	d, err := Derive(inst, cfg)
	if err != nil {
		return nil, nil, err
	}
	m, nc := inst.M(), inst.NC()
	owner := make([]*Fragment, m+nc)
	rep := &Report{Derived: d}
	for _, frag := range frags {
		if frag == nil {
			continue
		}
		if frag.Span.Lo < 0 || frag.Span.Hi > m+nc || frag.Span.Lo >= frag.Span.Hi {
			return nil, nil, fmt.Errorf("core: assemble: fragment span [%d,%d) out of range [0,%d)", frag.Span.Lo, frag.Span.Hi, m+nc)
		}
		nf := min(frag.Span.Hi, m) - min(frag.Span.Lo, m)
		if nf < 0 {
			nf = 0
		}
		if len(frag.Facilities) != nf || len(frag.Clients) != frag.Span.Len()-nf {
			return nil, nil, fmt.Errorf("core: assemble: fragment [%d,%d) carries %d+%d records for %d nodes",
				frag.Span.Lo, frag.Span.Hi, len(frag.Facilities), len(frag.Clients), frag.Span.Len())
		}
		for id := frag.Span.Lo; id < frag.Span.Hi; id++ {
			if owner[id] != nil {
				return nil, nil, fmt.Errorf("core: assemble: node %d covered by two fragments", id)
			}
			owner[id] = frag
		}
		rep.Net.Messages += frag.Stats.Messages
		rep.Net.Bits += frag.Stats.Bits
		rep.Net.Rejected += frag.Stats.Rejected
		// Frontier activity stats sum across spans: every shard executes the
		// same global rounds, so per-span live counts add up to the
		// in-process totals. Fragments that crossed the wire carry zeros
		// here (the codec predates the fields), which the sums absorb.
		rep.Net.LiveNodeRounds += frag.Stats.LiveNodeRounds
		rep.Net.Senders += frag.Stats.Senders
		rep.Net.FinalLive += frag.Stats.FinalLive
		if frag.Stats.Rounds > rep.Net.Rounds {
			rep.Net.Rounds = frag.Stats.Rounds
		}
		if frag.Stats.MaxMessageBits > rep.Net.MaxMessageBits {
			rep.Net.MaxMessageBits = frag.Stats.MaxMessageBits
		}
	}

	// An uncovered id belonged to a shard declared down: its zero state
	// masks it exactly like a crashed node.
	sol := settle(inst, rep, true,
		func(i int) FacilityState {
			if frag := owner[i]; frag != nil {
				return frag.Facilities[i-frag.Span.Lo]
			}
			return FacilityState{}
		},
		func(j int) ClientState {
			if frag := owner[m+j]; frag != nil {
				return frag.Clients[m+j-max(frag.Span.Lo, m)]
			}
			return ClientState{}
		})
	rep.OpenFacilities, rep.Cost = sol.OpenCount(), sol.Cost(inst)
	if err := Certify(inst, sol, rep); err != nil {
		return nil, nil, fmt.Errorf("core: assembled solution failed certification: %w", err)
	}
	return sol, rep, nil
}
