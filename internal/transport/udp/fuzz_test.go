package udp

import (
	"bytes"
	"net/netip"
	"slices"
	"testing"

	"dfl/internal/congest"
)

// FuzzFrameDecode joins the repo's fail-closed decoder fuzz family: the
// frame decoder must never panic on arbitrary datagrams, and everything it
// accepts must re-encode to bytes it accepts again, identically.
func FuzzFrameDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x01})
	f.Add(AppendFrame(nil, Frame{Kind: frData, Shard: 3, Round: 300, Seq: 7, Body: []byte{0xAA}}))
	f.Add(AppendFrame(nil, Frame{Kind: frAck, Seq: 1 << 40}))
	f.Add(AppendFrame(nil, Frame{Kind: frWelcome, Shard: 2, Inc: 1, Body: encodeBook([]string{"127.0.0.1:1"}, []congest.Span{{Lo: 0, Hi: 4}}, []uint64{1})}))
	f.Add(AppendFrame(nil, Frame{Kind: frRejoin, Shard: 1, Round: 12}))
	f.Fuzz(func(t *testing.T, p []byte) {
		fr, err := DecodeFrame(p)
		if err != nil {
			return
		}
		wire := AppendFrame(nil, fr)
		fr2, err := DecodeFrame(wire)
		if err != nil {
			t.Fatalf("re-encoded frame rejected: %v", err)
		}
		if fr2.Kind != fr.Kind || fr2.Shard != fr.Shard || fr2.Inc != fr.Inc || fr2.Round != fr.Round || fr2.Seq != fr.Seq || !bytes.Equal(fr2.Body, fr.Body) {
			t.Fatalf("re-encode diverged: %+v vs %+v", fr2, fr)
		}
	})
}

// FuzzDataReassembly drives a shard's DATA path — chunk reassembly, then
// the decode Gather runs — with one peer batch split into small chunks so
// records straddle them, delivered in any order with duplicates, a chunk
// claiming a forged parts count (forge&1), a record forging its sender
// (forge&2) and some chunks never sent (forge&4). It must never panic; a
// batch it accepts must equal the records sent; a forged chunk or batch
// must be refused and counted in rejected; and reassembly storage must
// stay within a small factor of the bytes delivered, whatever count the
// chunks claim. Each case runs twice on one shard, so reused storage is
// covered too.
func FuzzDataReassembly(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, []byte{2, 0, 1, 1}, uint8(3), uint8(0))
	f.Add([]byte("records that straddle chunk boundaries"), []byte{9, 3, 3, 0}, uint8(4), uint8(1))
	f.Add([]byte{0xff, 0x10, 0x20, 0x30}, []byte{}, uint8(0), uint8(2))
	f.Add([]byte{7, 7, 7, 7, 7, 7}, []byte{1}, uint8(1), uint8(4|1<<3))
	f.Fuzz(func(t *testing.T, recs, order []byte, chunk, forge uint8) {
		spans := []congest.Span{{Lo: 0, Hi: 8}, {Lo: 8, Hi: 16}}
		var want []congest.Message
		var body []byte
		for i := 0; i+1 < len(recs) && len(want) < 64; i += 2 {
			from, to := 8+int(recs[i]%8), int(recs[i+1]%16)
			payload := make([]byte, 1+int(recs[i]>>4)%10)
			payload[0] = 2 // FL-OFFER: up to 10 bytes
			copy(payload[1:], recs[i+1:])
			want = append(want, congest.Message{From: int32(from), To: int32(to), Payload: payload})
			body = appendMessageRecord(body, from, to, payload)
		}
		forgedSender := forge&2 != 0
		if forgedSender {
			body = appendMessageRecord(body, 3, 9, []byte{1}) // node 3 is not the sender's
		}
		size := 1 + int(chunk)%32
		parts := max((len(body)+size-1)/size, 1)
		piece := func(part int) []byte { return body[min(part*size, len(body)):min((part+1)*size, len(body))] }

		// The delivery schedule: (part, parts claimed) in arrival order.
		type delivery struct{ part, parts int }
		var seq []delivery
		for _, o := range order {
			seq = append(seq, delivery{int(o) % parts, parts})
		}
		if forge&4 == 0 {
			for part := parts - 1; part >= 0; part-- {
				seq = append(seq, delivery{part, parts})
			}
		}
		if forge&1 != 0 {
			claim := parts + 1 + int(forge>>3)
			at := int(forge>>3) % (len(seq) + 1)
			seq = slices.Insert(seq, at, delivery{claim - 1, claim})
		}

		// The model: the first chunk fixes the stream's count, and any
		// chunk claiming another is refused.
		refused, held := 0, map[int]bool{}
		for _, d := range seq {
			if d.parts != seq[0].parts {
				refused++
			} else {
				held[d.part] = true
			}
		}
		complete := len(seq) > 0 && seq[0].parts == parts && len(held) == parts

		s := &Shard{id: 0, k: 2, welcomed: true, spans: spans, batch: make([]stream, 2), ep: &endpoint{}}
		for pass := 0; pass < 2; pass++ {
			base := s.ep.rejected
			delivered := 0
			for _, d := range seq {
				c := piece(d.part)
				if d.parts != parts {
					c = []byte{0xde, 0xad}
				}
				delivered += len(c)
				s.handle(netip.AddrPort{}, Frame{Kind: frData, Shard: 1, Round: 0, Body: append(appendChunkHeader(nil, d.part, d.parts), c...)})
			}
			b := &s.batch[1]
			if cap(b.data) > 2*delivered+64 || cap(b.chunks) > 2*len(seq)+8 {
				t.Fatalf("pass %d: %d chunks of %d bytes in storage of %d bytes and %d entries",
					pass, len(seq), delivered, cap(b.data), cap(b.chunks))
			}
			got := s.collectLocked()
			wantRejected := refused
			switch {
			case !complete:
				if len(got) != 0 {
					t.Fatalf("pass %d: incomplete batch delivered %d messages", pass, len(got))
				}
			case forgedSender:
				wantRejected++
				if len(got) != 0 {
					t.Fatalf("pass %d: batch with a forged sender delivered %d messages", pass, len(got))
				}
			default:
				if len(got) != len(want) {
					t.Fatalf("pass %d: accepted %d messages, sent %d", pass, len(got), len(want))
				}
				for i := range want {
					if got[i].From != want[i].From || got[i].To != want[i].To || !bytes.Equal(got[i].Payload, want[i].Payload) {
						t.Fatalf("pass %d: message %d is %+v, sent %+v", pass, i, got[i], want[i])
					}
				}
			}
			if n := s.ep.rejected - base; n != int64(wantRejected) {
				t.Fatalf("pass %d: rejected %d, want %d", pass, n, wantRejected)
			}
			if cap(s.arena) > 2*len(body)+64 {
				t.Fatalf("pass %d: arena of %d bytes for a %d-byte batch", pass, cap(s.arena), len(body))
			}
		}
	})
}
