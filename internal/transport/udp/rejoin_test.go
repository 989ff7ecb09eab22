package udp

import (
	"bytes"
	"fmt"
	"net"
	"net/netip"
	"sync"
	"testing"
	"time"

	"dfl/internal/congest"
	"dfl/internal/core"
	"dfl/internal/fl"
	"dfl/internal/gen"
)

// TestBookCodecRoundTrip pins the WELCOME/ADMIT fleet-book codec directly
// (it was previously only exercised through e2e runs): encode/decode must
// round-trip addresses, spans and incarnations, and malformed books must
// reject.
func TestBookCodecRoundTrip(t *testing.T) {
	addrs := []string{"127.0.0.1:4001", "127.0.0.1:4002", "10.0.0.9:65535"}
	spans := []congest.Span{{Lo: 0, Hi: 5}, {Lo: 5, Hi: 9}, {Lo: 9, Hi: 40}}
	incs := []uint64{1, 3, 2}
	wire := encodeBook(addrs, spans, incs)
	gotAddrs, gotSpans, gotIncs, err := decodeBook(wire, 3)
	if err != nil {
		t.Fatalf("valid book rejected: %v", err)
	}
	for i := range addrs {
		if gotAddrs[i].String() != addrs[i] {
			t.Errorf("addr %d: %v, want %s", i, gotAddrs[i], addrs[i])
		}
		if gotSpans[i] != spans[i] {
			t.Errorf("span %d: %+v, want %+v", i, gotSpans[i], spans[i])
		}
		if gotIncs[i] != incs[i] {
			t.Errorf("inc %d: %d, want %d", i, gotIncs[i], incs[i])
		}
	}
	bad := map[string][]byte{
		"empty":          {},
		"truncated":      wire[:len(wire)-1],
		"trailing":       append(append([]byte(nil), wire...), 0),
		"zero inc":       encodeBook(addrs, spans, []uint64{1, 0, 1}),
		"inverted span":  encodeBook(addrs, []congest.Span{{Lo: 5, Hi: 5}, {Lo: 5, Hi: 9}, {Lo: 9, Hi: 40}}, incs),
		"not an address": encodeBook([]string{"nonsense", "127.0.0.1:1", "127.0.0.1:2"}, spans, incs),
	}
	for name, p := range bad {
		if _, _, _, err := decodeBook(p, 3); err == nil {
			t.Errorf("%s: decoder accepted malformed book", name)
		}
	}
	// One shard short is also malformed for k=3.
	if _, _, _, err := decodeBook(encodeBook(addrs[:2], spans[:2], incs[:2]), 3); err == nil {
		t.Error("short book accepted")
	}
}

// TestGatewayReadyWindow pins the barrier's live-window discipline (the
// fix for the unbounded ready-map growth): READY frames for any round but
// the open one, from shards already declared down, or malformed, are
// rejected and counted — including the edge where a shard's READY races
// its own down-declaration.
func TestGatewayReadyWindow(t *testing.T) {
	spans := []congest.Span{{Lo: 0, Hi: 2}, {Lo: 2, Hi: 4}}
	gw, err := NewGateway("127.0.0.1:0", spans, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	addr := netip.MustParseAddrPort("127.0.0.1:9999")

	gw.ep.mu.Lock()
	defer gw.ep.mu.Unlock()
	gw.round = 7
	ready := func(sh, round int, body []byte) {
		gw.handle(addr, Frame{Kind: frReady, Shard: sh, Round: round, Body: body})
	}
	base := gw.ep.rejected
	ready(0, 6, []byte{1}) // stale round: the barrier moved on
	ready(0, 8, []byte{1}) // future round: forged or wildly reordered
	ready(0, 7, []byte{2}) // malformed halted flag
	if gw.ep.rejected != base+3 || gw.readyGot[0] {
		t.Fatalf("out-of-window READY leaked in: rejected=%d (want %d), got=%v",
			gw.ep.rejected, base+3, gw.readyGot[0])
	}
	// The race the old map grew on: shard 1 was just declared down, its
	// in-flight READY for the current round arrives a beat later.
	gw.down[1] = true
	ready(1, 7, []byte{1})
	if gw.ep.rejected != base+4 || gw.readyGot[1] {
		t.Fatal("READY from a down shard was accepted")
	}
	// Control: a live shard's READY for the open round lands.
	ready(0, 7, []byte{1})
	if !gw.readyGot[0] || !gw.readyHalted[0] {
		t.Fatal("in-window READY rejected")
	}
	// And a duplicate of it is rejected, not double-counted.
	ready(0, 7, []byte{0})
	if gw.ep.rejected != base+5 || !gw.readyHalted[0] {
		t.Fatal("duplicate READY overwrote the barrier record")
	}
}

// TestZombieFenced proves the incarnation fence end to end on a real
// socket: once the gateway has moved a shard to incarnation 2, frames
// stamped with the old incarnation are dropped without acknowledgement and
// counted, while the current incarnation's frames pass.
func TestZombieFenced(t *testing.T) {
	spans := []congest.Span{{Lo: 0, Hi: 2}, {Lo: 2, Hi: 4}}
	gw, err := NewGateway("127.0.0.1:0", spans, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	gw.ep.mu.Lock()
	gw.inc[0] = 2 // shard 0 was killed and readmitted
	gw.ep.mu.Unlock()

	conn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	gwAddr, err := net.ResolveUDPAddr("udp", gw.Addr())
	if err != nil {
		t.Fatal(err)
	}

	// The zombie predecessor reports a barrier with its stale incarnation.
	stale := AppendFrame(nil, Frame{Kind: frReady, Shard: 0, Inc: 1, Round: 0, Seq: 0, Body: []byte{1}})
	if _, err := conn.WriteTo(stale, gwAddr); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		gw.ep.mu.Lock()
		fenced, got := gw.ep.fenced, gw.readyGot[0]
		gw.ep.mu.Unlock()
		if fenced >= 1 {
			if got {
				t.Fatal("fenced frame still reached the handler")
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("stale-incarnation frame was never fenced")
		}
		time.Sleep(tick)
	}
	// No ack for the fenced frame: the zombie must keep believing the
	// frame is unsettled (and eventually give the link up).
	conn.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
	buf := make([]byte, 2048)
	if n, _, err := conn.ReadFrom(buf); err == nil {
		f, derr := DecodeFrame(buf[:n])
		if derr == nil && f.Kind == frAck {
			t.Fatal("gateway acknowledged a stale-incarnation frame")
		}
	}

	// The successor's frame, stamped with the current incarnation, passes.
	current := AppendFrame(nil, Frame{Kind: frReady, Shard: 0, Inc: 2, Round: 0, Seq: 1, Body: []byte{1}})
	if _, err := conn.WriteTo(current, gwAddr); err != nil {
		t.Fatal(err)
	}
	deadline = time.Now().Add(2 * time.Second)
	for {
		gw.ep.mu.Lock()
		got := gw.readyGot[0]
		gw.ep.mu.Unlock()
		if got {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("current-incarnation frame never accepted")
		}
		time.Sleep(tick)
	}
}

// rejoinDeployment runs inst over k loopback shards with every-round
// checkpointing on the victim, kills the victim's transport once the
// gateway reaches killAfterRound, and (when respawn is set) rejoins it
// from its latest checkpoint after respawnDelay. It returns the gateway
// result and decoded fragments.
func rejoinDeployment(t *testing.T, inst *fl.Instance, cfg core.Config, seed int64, k, victim, killAfterRound int, ucfg Config, respawn bool, respawnDelay time.Duration) (*Result, []*core.Fragment, error) {
	t.Helper()
	d, err := core.Derive(inst, cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := inst.M() + inst.NC()
	spans := congest.SplitSpans(n, k)
	gw, err := NewGateway("127.0.0.1:0", spans, ucfg)
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()

	sink := newMemSink()
	var killOnce sync.Once
	var killMu sync.Mutex
	var victimShard *Shard
	var respawnErr error
	var respawnWG sync.WaitGroup
	gw.OnRound = func(round int, down []bool) {
		if round < killAfterRound {
			return
		}
		killOnce.Do(func() {
			killMu.Lock()
			v := victimShard
			killMu.Unlock()
			if v != nil {
				v.Close()
			}
			if !respawn {
				return
			}
			respawnWG.Add(1)
			go func() {
				defer respawnWG.Done()
				time.Sleep(respawnDelay)
				image := sink.latest()
				if image == nil {
					respawnErr = fmt.Errorf("victim died before its first checkpoint")
					return
				}
				ckpt, err := core.DecodeCheckpoint(image)
				if err != nil {
					respawnErr = err
					return
				}
				sh, err := Rejoin(victim, k, gw.Addr(), ckpt.Rounds(), ucfg, nil)
				if err != nil {
					respawnErr = err
					return
				}
				defer sh.Close()
				frag, err := core.ResumeShard(inst, cfg, spans[victim], seed, image, sh,
					core.CheckpointConfig{Every: 1, Sink: sink})
				if err != nil {
					respawnErr = err
					return
				}
				respawnErr = sh.SendResult(frag.Encode(nil))
			}()
		})
	}

	var wg sync.WaitGroup
	errs := make([]error, k)
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sh, err := Dial(i, k, gw.Addr(), ucfg, nil)
			if err != nil {
				errs[i] = err
				return
			}
			defer sh.Close()
			if i == victim {
				killMu.Lock()
				victimShard = sh
				killMu.Unlock()
				// The victim checkpoints every round so its successor can
				// resume; its own run is expected to die mid-flight.
				_, errs[i] = core.SolveShardCheckpointed(inst, cfg, spans[i], seed, sh,
					core.CheckpointConfig{Every: 1, Sink: sink})
				return
			}
			frag, err := core.SolveShard(inst, cfg, spans[i], seed, sh)
			if err != nil {
				errs[i] = err
				return
			}
			errs[i] = sh.SendResult(frag.Encode(nil))
		}(i)
	}
	res, err := gw.Run(d.TotalRounds + 16)
	wg.Wait()
	respawnWG.Wait()
	if err != nil {
		t.Fatalf("gateway: %v", err)
	}
	for i, e := range errs {
		if i != victim && e != nil {
			t.Fatalf("survivor shard %d: %v", i, e)
		}
	}
	if errs[victim] == nil {
		t.Fatal("victim was never killed (test harness bug)")
	}
	frags := make([]*core.Fragment, k)
	for i, p := range res.Fragments {
		if p == nil {
			continue
		}
		frag, err := core.DecodeFragment(p, inst.M(), inst.NC())
		if err != nil {
			t.Fatalf("shard %d fragment: %v", i, err)
		}
		frags[i] = frag
	}
	return res, frags, respawnErr
}

// TestDeploymentRejoinAfterKill is the tentpole's e2e pin: a shard killed
// mid-run, resumed from its checkpoint and readmitted at a barrier must
// end the run as a full participant — its fragment collected, its
// incarnation bumped, and every client in its span certified served rather
// than exempted.
func TestDeploymentRejoinAfterKill(t *testing.T) {
	if testing.Short() {
		t.Skip("rejoin deployment rides real barrier timeouts; slow under -short")
	}
	inst, err := gen.Uniform{M: 15, NC: 30, Density: 0.6, MinDegree: 2}.Generate(21)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{K: 8}
	const victim = 1
	res, frags, respawnErr := rejoinDeployment(t, inst, cfg, 7, 4, victim, 5, testConfig(), true, 0)
	if respawnErr != nil {
		t.Fatalf("respawned victim: %v", respawnErr)
	}
	if res.Down[victim] {
		t.Fatal("readmitted shard still marked down at the end of the run")
	}
	if res.AdmitRounds[victim] < 0 {
		t.Fatal("gateway recorded no admission for the readmitted shard")
	}
	if res.Incarnations[victim] != 2 {
		t.Fatalf("victim finished at incarnation %d, want 2", res.Incarnations[victim])
	}
	if frags[victim] == nil {
		t.Fatal("readmitted shard delivered no fragment")
	}
	sol, rep, err := core.Assemble(inst, cfg, frags)
	if err != nil {
		t.Fatalf("assembly after readmission: %v", err)
	}
	// The recovery rung's whole point: nothing in the run is dead or
	// orphaned — the outage window degraded to transient loss, which the
	// repair tail already absorbs.
	if len(rep.DeadFacilities) != 0 || len(rep.DeadClients) != 0 || len(rep.OrphanedClients) != 0 {
		t.Fatalf("readmitted run still carries exemptions: dead %v/%v orphaned %v",
			rep.DeadFacilities, rep.DeadClients, rep.OrphanedClients)
	}
	if err := core.Certify(inst, sol, rep); err != nil {
		t.Fatalf("readmitted solution failed certification: %v", err)
	}
	t.Logf("rejoined at round %d of %d: cost %d, %d unservable",
		res.AdmitRounds[victim], res.Rounds, rep.Cost, len(rep.UnservableClients))
}

// TestRejoinWindowMissed pins the ladder's terminal rung: with a one-round
// admission window, a rejoin that arrives rounds late is refused — the
// recovering process times out, and the run ends with the victim masked
// and its span exempted, exactly like the pre-recovery behaviour.
func TestRejoinWindowMissed(t *testing.T) {
	if testing.Short() {
		t.Skip("rejoin deployment rides real barrier timeouts; slow under -short")
	}
	inst, err := gen.Uniform{M: 15, NC: 30, Density: 0.6, MinDegree: 2}.Generate(21)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{K: 8}
	ucfg := testConfig()
	ucfg.AdmitWindow = 1
	ucfg.HelloTimeout = 3 * time.Second // bounds the refused rejoiner's wait
	const victim = 1
	// The victim dies at round 5 and only offers to rejoin 2.5s later — by
	// then the gateway's one-round window has long lapsed.
	res, frags, respawnErr := rejoinDeployment(t, inst, cfg, 7, 4, victim, 5, ucfg, true, 2500*time.Millisecond)
	if respawnErr == nil {
		t.Fatal("late rejoin was not refused")
	}
	if !res.Down[victim] {
		t.Fatal("victim readmitted despite missing the admission window")
	}
	if res.AdmitRounds[victim] >= 0 || res.Incarnations[victim] != 1 {
		t.Fatalf("refused shard changed state: admit round %d, incarnation %d",
			res.AdmitRounds[victim], res.Incarnations[victim])
	}
	sol, rep, err := core.Assemble(inst, cfg, frags)
	if err != nil {
		t.Fatalf("assembly with masked victim: %v", err)
	}
	if err := core.Certify(inst, sol, rep); err != nil {
		t.Fatalf("masked solution failed certification: %v", err)
	}
	if len(rep.DeadFacilities) == 0 {
		t.Error("victim's facilities were not masked dead")
	}
}

// logTransport replays a recorded remote-input log as a live transport
// (mirrors the core package's test double; redeclared here because test
// helpers do not cross packages).
type logTransport struct {
	log [][]congest.Message
}

func (t *logTransport) Begin(round int) (congest.RoundStart, error) {
	if round >= len(t.log) {
		return congest.RoundStart{Done: true}, nil
	}
	return congest.RoundStart{}, nil
}

func (t *logTransport) Send(round int, msgs []congest.Message) error { return nil }

func (t *logTransport) Gather(round int, allHalted bool) ([]congest.Message, error) {
	return t.log[round], nil
}

// TestUDPResumeParity is the transport half of the resume-parity pin: the
// checkpoints a shard writes while running over real UDP must resume to a
// fragment byte-identical to the one the uninterrupted UDP run committed,
// at every shard count. (The core half of the pin runs on ChanNetwork;
// this one proves the recorder sees identical inputs behind the real
// transport.)
func TestUDPResumeParity(t *testing.T) {
	inst, err := gen.Uniform{M: 8, NC: 30, Density: 0.5, MinDegree: 1}.Generate(3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{K: 8}
	const seed = 5
	for _, k := range []int{2, 3, 7} {
		t.Run(fmt.Sprintf("shards=%d", k), func(t *testing.T) {
			d, err := core.Derive(inst, cfg)
			if err != nil {
				t.Fatal(err)
			}
			n := inst.M() + inst.NC()
			spans := congest.SplitSpans(n, k)
			ucfg := testConfig()
			gw, err := NewGateway("127.0.0.1:0", spans, ucfg)
			if err != nil {
				t.Fatal(err)
			}
			defer gw.Close()
			sinks := make([]*memSink, k)
			frags := make([]*core.Fragment, k)
			errs := make([]error, k)
			var wg sync.WaitGroup
			for i := 0; i < k; i++ {
				sinks[i] = newMemSink()
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					sh, err := Dial(i, k, gw.Addr(), ucfg, nil)
					if err != nil {
						errs[i] = err
						return
					}
					defer sh.Close()
					frags[i], errs[i] = core.SolveShardCheckpointed(inst, cfg, spans[i], seed, sh,
						core.CheckpointConfig{Every: 1, Sink: sinks[i]})
					if errs[i] == nil {
						errs[i] = sh.SendResult(frags[i].Encode(nil))
					}
				}(i)
			}
			if _, err := gw.Run(d.TotalRounds + 8); err != nil {
				t.Fatalf("gateway: %v", err)
			}
			wg.Wait()
			for i, err := range errs {
				if err != nil {
					t.Fatalf("shard %d: %v", i, err)
				}
			}
			for si := range spans {
				want := frags[si].Encode(nil)
				full, err := core.DecodeCheckpoint(sinks[si].latest())
				if err != nil {
					t.Fatalf("shard %d final image: %v", si, err)
				}
				for _, r := range []int{1, full.Rounds() / 2} {
					image := sinks[si].at(r)
					if image == nil {
						t.Fatalf("shard %d: no checkpoint at round %d", si, r)
					}
					frag, err := core.ResumeShard(inst, cfg, spans[si], seed, image,
						&logTransport{log: full.Log}, core.CheckpointConfig{})
					if err != nil {
						t.Fatalf("shard %d resume at %d: %v", si, r, err)
					}
					if got := frag.Encode(nil); !bytes.Equal(got, want) {
						t.Errorf("shard %d resumed at round %d diverged from the UDP run's fragment", si, r)
					}
				}
			}
		})
	}
}

// memSink is an in-memory CheckpointSink keeping every image by round.
type memSink struct {
	mu     sync.Mutex
	images map[int][]byte
	last   int
}

func newMemSink() *memSink { return &memSink{images: map[int][]byte{}} }

func (s *memSink) Checkpoint(round int, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.images[round] = append([]byte(nil), data...)
	if round > s.last {
		s.last = round
	}
	return nil
}

func (s *memSink) at(round int) []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.images[round]
}

func (s *memSink) latest() []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.images[s.last]
}
