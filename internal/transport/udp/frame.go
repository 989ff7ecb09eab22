// Package udp is the real-transport backend: it runs the facility-location
// protocol as a multi-process distributed system over UDP datagrams, behind
// the congest.Transport seam. One gateway process sequences round barriers
// for k shard processes; shards exchange per-round protocol payloads
// directly with each other. Every frame travels over a per-peer reliable
// link (sequence numbers, acks, deadline-driven retransmission with capped
// exponential backoff and a bounded retry budget); a peer that exhausts the
// budget is declared down and masked like a crashed node, so real packet
// loss and peer death degrade the run exactly like the simulator's injected
// faults — ending in core.Certify-validated exemptions, never a hang.
//
// The package deliberately owns the repo's nondeterministic edge: timers,
// deadlines and jittered backoff live here and in cmd/flnode, outside
// flvet's detrand scope (internal/core, internal/congest, internal/seq).
// The deterministic protocol core is untouched: a shard's node execution
// is byte-identical to the in-process runners whenever the network
// delivers.
package udp

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// frameVersion is the wire ABI version; bump on any layout change. The
// golden test in frame_test.go pins the layout byte for byte. v2 added the
// incarnation field and the REJOIN/ADMIT kinds.
const frameVersion = 2

// Frame kinds. One byte on the wire.
const (
	frData    byte = 0x01 // shard -> shard: batch of protocol messages for a round (chunked)
	frAck     byte = 0x02 // any -> any: acknowledges seq (never acked itself)
	frHello   byte = 0x10 // shard -> gateway: I am up
	frWelcome byte = 0x11 // gateway -> shard: address book, run may start
	frGo      byte = 0x12 // gateway -> shard: round barrier open (body: down shard ids + readmit records)
	frReady   byte = 0x13 // shard -> gateway: round finished (body: halted flag)
	frDone    byte = 0x14 // gateway -> shard: run complete, ship your fragment
	frResult  byte = 0x15 // shard -> gateway: fragment bytes (chunked)
	frRejoin  byte = 0x16 // shard -> gateway: recovered from checkpoint, round = resume round
	frAdmit   byte = 0x17 // gateway -> shard: readmitted (body: new incarnation + address book + down set)
)

// maxFrameBody bounds a frame body so every frame fits comfortably in one
// unfragmented datagram on loopback and typical ethernet MTUs.
const maxFrameBody = 1200

// maxFrameHeader bounds AppendFrame's header: version and kind bytes,
// three uvarints below frameLimit and the seq uvarint.
const maxFrameHeader = 2 + 3*binary.MaxVarintLen32 + binary.MaxVarintLen64

// Frame is a decoded datagram: the fixed header plus the kind-specific
// body. Shard is the sender's shard id; the gateway sends as shard id k
// (the shard count), which every receiver knows from its configuration.
// Inc is the sender's incarnation: the gateway starts every shard at 1 and
// bumps it on each readmission, and every endpoint fences frames whose
// incarnation does not match its expectation for the sending shard — so a
// zombie pre-crash process cannot inject state into a run its successor
// has rejoined. A rejoining shard does not yet know its number and sends
// REJOIN with incarnation 0; ACK and REJOIN are the only kinds exempt from
// fencing.
type Frame struct {
	Kind  byte
	Shard int
	Inc   uint64
	Round int
	Seq   uint64
	Body  []byte
}

// frameLimit bounds the header's uvarint fields: shard ids and rounds far
// beyond any real deployment are rejected as noise rather than allocated
// for.
const frameLimit = 1 << 30

var errFrame = errors.New("udp: malformed frame")

// AppendFrame renders a frame header + body into buf's storage:
//
//	version(1) | kind(1) | shard uvarint | inc uvarint | round uvarint | seq uvarint | body
func AppendFrame(buf []byte, f Frame) []byte {
	buf = append(buf, frameVersion, f.Kind)
	buf = binary.AppendUvarint(buf, uint64(f.Shard))
	buf = binary.AppendUvarint(buf, f.Inc)
	buf = binary.AppendUvarint(buf, uint64(f.Round))
	buf = binary.AppendUvarint(buf, f.Seq)
	return append(buf, f.Body...)
}

// DecodeFrame parses one datagram. It is fail-closed in the repo's usual
// sense: unknown version or kind, overlong varints, out-of-range ids and
// oversized bodies are all rejected; it never panics on arbitrary bytes.
// The returned Body aliases p.
func DecodeFrame(p []byte) (Frame, error) {
	if len(p) < 2 {
		return Frame{}, fmt.Errorf("%w: %d-byte datagram", errFrame, len(p))
	}
	if p[0] != frameVersion {
		return Frame{}, fmt.Errorf("%w: version %d", errFrame, p[0])
	}
	switch p[1] {
	case frData, frAck, frHello, frWelcome, frGo, frReady, frDone, frResult, frRejoin, frAdmit:
	default:
		return Frame{}, fmt.Errorf("%w: kind %#x", errFrame, p[1])
	}
	f := Frame{Kind: p[1]}
	p = p[2:]
	shard, n := binary.Uvarint(p)
	if n <= 0 || shard >= frameLimit {
		return Frame{}, fmt.Errorf("%w: shard field", errFrame)
	}
	p = p[n:]
	inc, n := binary.Uvarint(p)
	if n <= 0 || inc >= frameLimit {
		return Frame{}, fmt.Errorf("%w: inc field", errFrame)
	}
	p = p[n:]
	round, n := binary.Uvarint(p)
	if n <= 0 || round >= frameLimit {
		return Frame{}, fmt.Errorf("%w: round field", errFrame)
	}
	p = p[n:]
	seq, n := binary.Uvarint(p)
	if n <= 0 {
		return Frame{}, fmt.Errorf("%w: seq field", errFrame)
	}
	p = p[n:]
	if len(p) > maxFrameBody {
		return Frame{}, fmt.Errorf("%w: %d-byte body", errFrame, len(p))
	}
	f.Shard = int(shard)
	f.Inc = inc
	f.Round = int(round)
	f.Seq = seq
	f.Body = p
	return f, nil
}

// Chunked bodies: DATA and RESULT payloads can exceed one datagram, so
// their bodies open with `part uvarint | parts uvarint` followed by the
// chunk. The receiver reassembles per (shard, round) once all parts are in.

// appendChunkHeader prefixes a chunk body.
func appendChunkHeader(buf []byte, part, parts int) []byte {
	buf = binary.AppendUvarint(buf, uint64(part))
	return binary.AppendUvarint(buf, uint64(parts))
}

// decodeChunkHeader splits a chunked body into its position and payload.
func decodeChunkHeader(p []byte) (part, parts int, rest []byte, err error) {
	up, n := binary.Uvarint(p)
	if n <= 0 || up >= frameLimit {
		return 0, 0, nil, fmt.Errorf("%w: chunk part", errFrame)
	}
	p = p[n:]
	us, n := binary.Uvarint(p)
	if n <= 0 || us == 0 || us >= frameLimit || up >= us {
		return 0, 0, nil, fmt.Errorf("%w: chunk parts", errFrame)
	}
	return int(up), int(us), p[n:], nil
}

// DATA bodies carry protocol messages as
// `from uvarint | to uvarint | len uvarint | payload` records. Records may
// straddle chunk boundaries: the receiver reassembles the full body before
// parsing any record.

// appendMessageRecord renders one protocol message record.
func appendMessageRecord(buf []byte, from, to int, payload []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(from))
	buf = binary.AppendUvarint(buf, uint64(to))
	buf = binary.AppendUvarint(buf, uint64(len(payload)))
	return append(buf, payload...)
}

// decodeMessageRecord parses one record, returning the remainder.
func decodeMessageRecord(p []byte) (from, to int, payload, rest []byte, err error) {
	uf, n := binary.Uvarint(p)
	if n <= 0 || uf >= frameLimit {
		return 0, 0, nil, nil, fmt.Errorf("%w: record from", errFrame)
	}
	p = p[n:]
	ut, n := binary.Uvarint(p)
	if n <= 0 || ut >= frameLimit {
		return 0, 0, nil, nil, fmt.Errorf("%w: record to", errFrame)
	}
	p = p[n:]
	ul, n := binary.Uvarint(p)
	if n <= 0 || ul > uint64(len(p)-n) {
		return 0, 0, nil, nil, fmt.Errorf("%w: record length", errFrame)
	}
	p = p[n:]
	return int(uf), int(ut), p[:ul], p[ul:], nil
}
