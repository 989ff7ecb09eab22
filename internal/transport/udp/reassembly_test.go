package udp

import (
	"net"
	"runtime"
	"testing"
	"time"

	"dfl/internal/congest"
)

// rawPeer is a bare UDP socket that speaks frames by hand: it stands in
// for a gateway or a peer shard whose frames a test forges.
type rawPeer struct {
	t    *testing.T
	conn net.PacketConn
	buf  []byte
}

func newRawPeer(t *testing.T) *rawPeer {
	t.Helper()
	conn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return &rawPeer{t: t, conn: conn, buf: make([]byte, 2048)}
}

func (p *rawPeer) addr() string { return p.conn.LocalAddr().String() }

func (p *rawPeer) send(to net.Addr, f Frame) {
	p.t.Helper()
	if _, err := p.conn.WriteTo(AppendFrame(nil, f), to); err != nil {
		p.t.Fatal(err)
	}
}

// await reads until a frame of kind arrives, returning it and its sender.
func (p *rawPeer) await(kind byte) (Frame, net.Addr) {
	p.t.Helper()
	p.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	for {
		n, from, err := p.conn.ReadFrom(p.buf)
		if err != nil {
			p.t.Fatalf("awaiting frame kind %#x: %v", kind, err)
		}
		if f, err := DecodeFrame(p.buf[:n]); err == nil && f.Kind == kind {
			return f, from
		}
	}
}

// sendSettled sends f and waits for its ack. The endpoint acknowledges
// and handles a frame under one hold of its mutex, so once the ack is in,
// locking that mutex orders the caller after the handler.
func (p *rawPeer) sendSettled(to net.Addr, f Frame) {
	p.t.Helper()
	p.send(to, f)
	for {
		ack, _ := p.await(frAck)
		if ack.Seq == f.Seq {
			return
		}
	}
}

// welcomedShard dials shard 0 of a two-shard fleet whose gateway and
// shard 1 are raw peers, and welcomes it with a book naming them.
func welcomedShard(t *testing.T) (sh *Shard, gw, peer *rawPeer, addr net.Addr) {
	t.Helper()
	gw, peer = newRawPeer(t), newRawPeer(t)
	dialed := make(chan error, 1)
	go func() {
		var err error
		sh, err = Dial(0, 2, gw.addr(), testConfig(), nil)
		dialed <- err
	}()
	hello, from := gw.await(frHello)
	gw.send(from, Frame{Kind: frAck, Shard: 2, Inc: 1, Seq: hello.Seq})
	spans := []congest.Span{{Lo: 0, Hi: 4}, {Lo: 4, Hi: 8}}
	book := encodeBook([]string{from.String(), peer.addr()}, spans, []uint64{1, 1})
	gw.send(from, Frame{Kind: frWelcome, Shard: 2, Inc: 1, Body: book})
	if err := <-dialed; err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sh.Close)
	return sh, gw, peer, from
}

// allocatedBy reports the bytes the process allocates while f runs.
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

func rejectedBy(ep *endpoint) int64 {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	return ep.rejected
}

// hugeClaim is a chunk body that claims 1<<20 parts: a reassembly table
// sized by that count would take 24 MiB before any second chunk arrived.
func hugeClaim() []byte {
	return append(appendChunkHeader(nil, 0, 1<<20), make([]byte, 100)...)
}

// TestDataPartsClaimAllocatesNothing: a fenced-in DATA frame claiming
// 1<<20 parts costs a shard storage for the one chunk it carries, not for
// the count it claims; a chunk of the same stream with another count, and
// DATA for a round the barrier has not opened, are refused and counted.
func TestDataPartsClaimAllocatesNothing(t *testing.T) {
	sh, _, peer, addr := welcomedShard(t)
	base := rejectedBy(sh.ep)
	used := allocatedBy(func() {
		peer.sendSettled(addr, Frame{Kind: frData, Shard: 1, Inc: 1, Round: 0, Seq: 0, Body: hugeClaim()})
		sh.ep.mu.Lock()
		sh.ep.mu.Unlock()
	})
	if used > 1<<20 {
		t.Errorf("one DATA chunk claiming 1<<20 parts allocated %d bytes", used)
	}
	peer.sendSettled(addr, Frame{Kind: frData, Shard: 1, Inc: 1, Round: 0, Seq: 1, Body: append(appendChunkHeader(nil, 1, 3), 1)})
	peer.sendSettled(addr, Frame{Kind: frData, Shard: 1, Inc: 1, Round: 5, Seq: 2, Body: append(appendChunkHeader(nil, 0, 1), 1)})
	if got := rejectedBy(sh.ep) - base; got != 2 {
		t.Errorf("rejected %d frames, want 2 (a chunk against the stream's count, a round ahead of the barrier)", got)
	}
}

// TestResultPartsClaimAllocatesNothing is the gateway's twin: a RESULT
// frame claiming 1<<20 parts costs storage for its one chunk, and a chunk
// of the same stream with another count is refused and counted.
func TestResultPartsClaimAllocatesNothing(t *testing.T) {
	gw, err := NewGateway("127.0.0.1:0", []congest.Span{{Lo: 0, Hi: 2}, {Lo: 2, Hi: 4}}, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	to, err := net.ResolveUDPAddr("udp", gw.Addr())
	if err != nil {
		t.Fatal(err)
	}
	shard := newRawPeer(t)
	base := rejectedBy(gw.ep)
	used := allocatedBy(func() {
		shard.sendSettled(to, Frame{Kind: frResult, Shard: 0, Inc: 1, Seq: 0, Body: hugeClaim()})
		gw.ep.mu.Lock()
		gw.ep.mu.Unlock()
	})
	if used > 1<<20 {
		t.Errorf("one RESULT chunk claiming 1<<20 parts allocated %d bytes", used)
	}
	shard.sendSettled(to, Frame{Kind: frResult, Shard: 0, Inc: 1, Seq: 1, Body: append(appendChunkHeader(nil, 1, 3), 1)})
	if got := rejectedBy(gw.ep) - base; got != 1 {
		t.Errorf("rejected %d frames, want 1 (a chunk against the stream's count)", got)
	}
}
