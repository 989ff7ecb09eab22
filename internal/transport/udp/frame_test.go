package udp

import (
	"bytes"
	"testing"
	"time"

	"dfl/internal/congest"
)

// TestFrameGoldenWire pins the datagram ABI byte for byte: version, kind,
// shard, incarnation, round, seq, body. Any layout change must break this
// test and bump frameVersion.
func TestFrameGoldenWire(t *testing.T) {
	cases := []struct {
		name string
		f    Frame
		want []byte
	}{
		{
			name: "data",
			f:    Frame{Kind: frData, Shard: 3, Inc: 1, Round: 300, Seq: 7, Body: []byte{0xAA, 0xBB}},
			want: []byte{
				0x02,       // version
				0x01,       // kind DATA
				0x03,       // shard 3
				0x01,       // incarnation 1
				0xAC, 0x02, // round 300 (uvarint)
				0x07,       // seq 7
				0xAA, 0xBB, // body
			},
		},
		{
			name: "ack",
			f:    Frame{Kind: frAck, Shard: 0, Inc: 1, Round: 0, Seq: 200},
			want: []byte{0x02, 0x02, 0x00, 0x01, 0x00, 0xC8, 0x01},
		},
		{
			name: "hello",
			f:    Frame{Kind: frHello, Shard: 2, Inc: 1, Round: 0, Seq: 0},
			want: []byte{0x02, 0x10, 0x02, 0x01, 0x00, 0x00},
		},
		{
			name: "go-with-down-list",
			f:    Frame{Kind: frGo, Shard: 4, Inc: 1, Round: 17, Seq: 9, Body: append(encodeDownList([]bool{false, true, false, true}), 0x00)},
			want: []byte{0x02, 0x12, 0x04, 0x01, 0x11, 0x09, 0x02, 0x01, 0x03, 0x00},
		},
		{
			name: "ready-halted",
			f:    Frame{Kind: frReady, Shard: 1, Inc: 2, Round: 64, Seq: 5, Body: []byte{1}},
			want: []byte{0x02, 0x13, 0x01, 0x02, 0x40, 0x05, 0x01},
		},
		{
			// A rejoiner does not know its next incarnation: REJOIN always
			// carries 0, and Round is the checkpoint's resume round.
			name: "rejoin",
			f:    Frame{Kind: frRejoin, Shard: 2, Inc: 0, Round: 12, Seq: 0},
			want: []byte{0x02, 0x16, 0x02, 0x00, 0x0C, 0x00},
		},
		{
			name: "admit",
			f:    Frame{Kind: frAdmit, Shard: 4, Inc: 1, Round: 13, Seq: 3, Body: []byte{0x02}},
			want: []byte{0x02, 0x17, 0x04, 0x01, 0x0D, 0x03, 0x02},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := AppendFrame(nil, c.f)
			if !bytes.Equal(got, c.want) {
				t.Fatalf("wire bytes changed:\n got  %#v\n want %#v\nbump frameVersion if this is intentional", got, c.want)
			}
			back, err := DecodeFrame(got)
			if err != nil {
				t.Fatalf("golden frame does not decode: %v", err)
			}
			if back.Kind != c.f.Kind || back.Shard != c.f.Shard || back.Inc != c.f.Inc || back.Round != c.f.Round || back.Seq != c.f.Seq || !bytes.Equal(back.Body, c.f.Body) {
				t.Fatalf("round trip diverged: %+v vs %+v", back, c.f)
			}
		})
	}
}

func TestFrameDecodeFailClosed(t *testing.T) {
	good := AppendFrame(nil, Frame{Kind: frData, Shard: 1, Inc: 1, Round: 2, Seq: 3, Body: []byte{0xFF}})
	cases := map[string][]byte{
		"empty":            {},
		"one byte":         {0x02},
		"bad version":      append([]byte{0x01}, good[1:]...),
		"bad kind":         {0x02, 0x7F, 0x01, 0x01, 0x02, 0x03},
		"truncated header": good[:3],
		"oversized body":   AppendFrame(nil, Frame{Kind: frData, Shard: 1, Inc: 1, Body: make([]byte, maxFrameBody+1)}),
		"huge shard":       {0x02, 0x01, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F, 0x00, 0x00, 0x00},
		"huge incarnation": {0x02, 0x01, 0x01, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F, 0x00, 0x00},
	}
	for name, p := range cases {
		if _, err := DecodeFrame(p); err == nil {
			t.Errorf("%s: decoder accepted %x", name, p)
		}
	}
	if _, err := DecodeFrame(good); err != nil {
		t.Fatalf("control case rejected: %v", err)
	}
}

// TestDecodeBatchChecksIDs checks that decodeBatch rejects a record whose
// sender lies outside the sending shard's span or whose recipient lies
// outside every span, so that no id is narrowed to a Message's int32
// before its range check.
func TestDecodeBatchChecksIDs(t *testing.T) {
	spans := []congest.Span{{Lo: 0, Hi: 4}, {Lo: 4, Hi: 10}}
	done := []byte{1} // FL-DONE, which core registers
	msgs, err := decodeBatch(appendMessageRecord(nil, 5, 2, done), 1, spans)
	if err != nil || len(msgs) != 1 || msgs[0].From != 5 || msgs[0].To != 2 {
		t.Fatalf("control record: decodeBatch = (%v, %v), want one message 5->2", msgs, err)
	}
	cases := map[string][]byte{
		"sender outside the shard":     appendMessageRecord(nil, 3, 2, done),
		"recipient outside every span": appendMessageRecord(nil, 5, 10, done),
		"recipient past int32":         appendMessageRecord(nil, 5, 1<<32+2, done),
		"sender past int32":            appendMessageRecord(nil, 1<<32+5, 2, done),
	}
	for name, p := range cases {
		if msgs, err := decodeBatch(p, 1, spans); err == nil {
			t.Errorf("%s: decodeBatch accepted %v", name, msgs)
		}
	}
}

// TestBackoffSchedule is the table-driven pin of the retransmission policy:
// exponential doubling from Base, hard cap, budget exhaustion point, and
// the worst-case total wait barrier timeouts must clear.
func TestBackoffSchedule(t *testing.T) {
	ms := time.Millisecond
	cases := []struct {
		name      string
		p         Policy
		delays    []time.Duration // by attempt 0..n
		exhausted int             // first attempt count that is out of budget
		totalWait time.Duration
	}{
		{
			name:      "default-shape",
			p:         Policy{Base: 10 * ms, Cap: 160 * ms, Budget: 8},
			delays:    []time.Duration{10 * ms, 20 * ms, 40 * ms, 80 * ms, 160 * ms, 160 * ms, 160 * ms, 160 * ms, 160 * ms},
			exhausted: 9,
			totalWait: 950 * ms,
		},
		{
			name:      "tight-cap",
			p:         Policy{Base: 4 * ms, Cap: 5 * ms, Budget: 2},
			delays:    []time.Duration{4 * ms, 5 * ms, 5 * ms},
			exhausted: 3,
			totalWait: 14 * ms,
		},
		{
			name:      "no-retries",
			p:         Policy{Base: 7 * ms, Cap: 7 * ms, Budget: 0},
			delays:    []time.Duration{7 * ms},
			exhausted: 1,
			totalWait: 7 * ms,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for a, want := range c.delays {
				if got := c.p.Delay(a); got != want {
					t.Errorf("Delay(%d) = %v, want %v", a, got, want)
				}
			}
			if c.p.Exhausted(c.exhausted - 1) {
				t.Errorf("Exhausted(%d) fired one attempt early", c.exhausted-1)
			}
			if !c.p.Exhausted(c.exhausted) {
				t.Errorf("Exhausted(%d) did not fire", c.exhausted)
			}
			if got := c.p.TotalWait(); got != c.totalWait {
				t.Errorf("TotalWait = %v, want %v", got, c.totalWait)
			}
		})
	}
}

func TestChaosSpecParser(t *testing.T) {
	c, err := ParseChaos("loss=0.1,dup=0.05,delay=0.2,lag=25ms,seed=7")
	if err != nil {
		t.Fatal(err)
	}
	if c.Loss != 0.1 || c.Dup != 0.05 || c.Delay != 0.2 || c.Lag != 25*time.Millisecond || c.Seed != 7 {
		t.Fatalf("parsed %+v", c)
	}
	if c, err := ParseChaos(""); err != nil || c != nil {
		t.Fatalf("empty spec: %v, %v", c, err)
	}
	for _, bad := range []string{"loss=2", "loss", "bogus=1", "lag=fast", "seed=x"} {
		if _, err := ParseChaos(bad); err == nil {
			t.Errorf("spec %q accepted", bad)
		}
	}
}
