package core

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"dfl/internal/congest"
	"dfl/internal/fl"
	"dfl/internal/gen"
)

// memSink keeps every checkpoint image by round, newest-wins per round.
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

// solveShardedCheckpointed is solveSharded with an every-round checkpoint
// recorder on each shard; it returns the raw fragments and per-shard sinks.
func solveShardedCheckpointed(t *testing.T, inst *fl.Instance, cfg Config, seed int64, k int) ([]*Fragment, []*memSink) {
	t.Helper()
	n := inst.M() + inst.NC()
	spans := congest.SplitSpans(n, k)
	net, err := congest.NewChanNetwork(n, spans)
	if err != nil {
		t.Fatal(err)
	}
	frags := make([]*Fragment, len(spans))
	sinks := make([]*memSink, len(spans))
	errs := make([]error, len(spans))
	var wg sync.WaitGroup
	for si, span := range spans {
		sinks[si] = newMemSink()
		wg.Add(1)
		go func(si int, span congest.Span) {
			defer wg.Done()
			frags[si], errs[si] = SolveShardCheckpointed(inst, cfg, span, seed, net.Shard(si), sinks[si])
			if errs[si] != nil {
				net.Abort(errs[si])
			}
		}(si, span)
	}
	wg.Wait()
	for si, err := range errs {
		if err != nil {
			t.Fatalf("shard %d: %v", si, err)
		}
	}
	return frags, sinks
}

// logTransport serves a shard's full remote-input log as a live transport:
// every logged round opens instantly and gathers the logged messages, and
// the round after the log ends is declared globally done. Feeding a shard
// its own recorded inputs this way re-creates the uninterrupted execution
// exactly, which is what lets the resume-parity tests compare fragments
// byte for byte without live peers.
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

// TestCheckpointCodecRoundTrip runs a real sharded deployment with
// every-round checkpointing and round-trips each shard's final image
// through the codec: decode must succeed, re-encode must reproduce the
// exact bytes, and the header must carry the deployment identity.
func TestCheckpointCodecRoundTrip(t *testing.T) {
	inst, err := gen.Uniform{M: 8, NC: 30, Density: 0.5, MinDegree: 1}.Generate(4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{K: 8}
	frags, sinks := solveShardedCheckpointed(t, inst, cfg, 11, 3)
	for si, sink := range sinks {
		image := sink.at(sink.last)
		if image == nil {
			t.Fatalf("shard %d produced no checkpoint", si)
		}
		ck, err := DecodeCheckpoint(image)
		if err != nil {
			t.Fatalf("shard %d: decode final image: %v", si, err)
		}
		if ck.Span != frags[si].Span || ck.M != inst.M() || ck.NC != inst.NC() || ck.K != cfg.K || ck.Seed != 11 {
			t.Fatalf("shard %d: checkpoint header %+v does not match deployment", si, ck)
		}
		if ck.Rounds() != frags[si].Stats.Rounds {
			t.Errorf("shard %d: checkpoint covers %d rounds, fragment ran %d", si, ck.Rounds(), frags[si].Stats.Rounds)
		}
		if back := ck.Encode(nil); !bytes.Equal(back, image) {
			t.Errorf("shard %d: re-encode diverged: %d bytes vs %d", si, len(back), len(image))
		}
	}
}

// TestCheckpointDecodeFailClosed drives the checkpoint decoder with every
// class of malformed input: all must reject, none may panic.
func TestCheckpointDecodeFailClosed(t *testing.T) {
	inst, err := gen.Uniform{M: 6, NC: 20, Density: 0.5, MinDegree: 1}.Generate(2)
	if err != nil {
		t.Fatal(err)
	}
	_, sinks := solveShardedCheckpointed(t, inst, Config{K: 8}, 3, 2)
	valid := sinks[0].at(sinks[0].last)
	ck, err := DecodeCheckpoint(valid)
	if err != nil {
		t.Fatalf("valid image rejected: %v", err)
	}
	// Borrow a real registered payload for the hand-built violation cases.
	var payload []byte
	for _, msgs := range ck.Log {
		if len(msgs) > 0 {
			payload = msgs[0].Payload
			break
		}
	}
	if payload == nil {
		t.Fatal("run produced no cross-shard traffic to borrow a payload from")
	}
	span, m, nc := ck.Span, ck.M, ck.NC
	remote, local := int32(span.Hi), int32(span.Lo) // sender outside the span, recipient inside
	craft := func(mut func(c *Checkpoint)) []byte {
		c := &Checkpoint{Span: span, M: m, NC: nc, K: ck.K, Seed: ck.Seed,
			Log: [][]congest.Message{{{From: remote, To: local, Payload: payload}}}}
		mut(c)
		return c.Encode(nil)
	}
	cases := map[string][]byte{
		"empty":       {},
		"bad version": append([]byte{ckptVersion + 1}, valid[1:]...),
		"truncated":   valid[:len(valid)-1],
		"trailing":    append(append([]byte(nil), valid...), 0),
		"inverted span": craft(func(c *Checkpoint) {
			c.Span = congest.Span{Lo: span.Hi, Hi: span.Lo}
		}),
		"span beyond nodes": craft(func(c *Checkpoint) {
			c.Span = congest.Span{Lo: m + nc, Hi: m + nc + 2}
		}),
		"sender inside span": craft(func(c *Checkpoint) {
			c.Log[0][0].From = local
		}),
		"sender out of range": craft(func(c *Checkpoint) {
			c.Log[0][0].From = int32(m + nc)
		}),
		"recipient outside span": craft(func(c *Checkpoint) {
			c.Log[0][0].To = remote
		}),
		"unregistered payload": craft(func(c *Checkpoint) {
			c.Log[0][0].Payload = []byte{0xFF, 1, 2}
		}),
		"empty payload": craft(func(c *Checkpoint) {
			c.Log[0][0].Payload = nil
		}),
	}
	for name, p := range cases {
		if _, err := DecodeCheckpoint(p); err == nil {
			t.Errorf("%s: decoder accepted malformed checkpoint", name)
		}
	}
}

// TestResumeShardMatchesUninterrupted is the tentpole parity pin (the
// distributed face of invariant I5): a shard checkpointed at round r,
// killed, and resumed must commit a fragment byte-identical to the one the
// uninterrupted run committed — same node states, same stats, same wire
// bytes — for every shard count and a spread of kill rounds. Post-kill
// rounds are served from the uninterrupted run's own recorded inputs, so
// any divergence is the resume machinery's fault, not the network's.
func TestResumeShardMatchesUninterrupted(t *testing.T) {
	inst, err := gen.Uniform{M: 12, NC: 50, Density: 0.4, MinDegree: 1}.Generate(6)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{K: 16}
	const seed = 9
	for _, k := range []int{2, 3, 7} {
		t.Run(fmt.Sprintf("shards=%d", k), func(t *testing.T) {
			frags, sinks := solveShardedCheckpointed(t, inst, cfg, seed, k)
			spans := congest.SplitSpans(inst.M()+inst.NC(), k)
			for si, span := range spans {
				want := frags[si].Encode(nil)
				full, err := DecodeCheckpoint(sinks[si].at(sinks[si].last))
				if err != nil {
					t.Fatalf("shard %d: final image: %v", si, err)
				}
				for _, r := range []int{1, full.Rounds() / 2, full.Rounds()} {
					image := sinks[si].at(r)
					if image == nil {
						t.Fatalf("shard %d: no checkpoint at round %d", si, r)
					}
					resumeSink := newMemSink()
					frag, err := ResumeShard(inst, cfg, span, seed, image, &logTransport{log: full.Log}, resumeSink)
					if err != nil {
						t.Fatalf("shard %d resume at round %d: %v", si, r, err)
					}
					if got := frag.Encode(nil); !bytes.Equal(got, want) {
						t.Errorf("shard %d resumed at round %d diverged from uninterrupted run:\n got  %x\n want %x", si, r, got, want)
					}
					// The resumed run keeps checkpointing past the image; its
					// final image must match the uninterrupted run's too.
					if r < full.Rounds() {
						if got := resumeSink.at(resumeSink.last); !bytes.Equal(got, sinks[si].at(sinks[si].last)) {
							t.Errorf("shard %d resumed at round %d: continued checkpoint diverged", si, r)
						}
					}
				}
			}
		})
	}
}

// TestResumeShardRejectsMismatch pins the identity check: an image taken
// under a different span, instance shape, K or seed must reject rather
// than resume a different run's state.
func TestResumeShardRejectsMismatch(t *testing.T) {
	inst, err := gen.Uniform{M: 6, NC: 20, Density: 0.5, MinDegree: 1}.Generate(2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{K: 8}
	_, sinks := solveShardedCheckpointed(t, inst, cfg, 3, 2)
	image := sinks[0].at(sinks[0].last)
	spans := congest.SplitSpans(inst.M()+inst.NC(), 2)
	cases := map[string]func() (*fl.Instance, Config, congest.Span, int64){
		"wrong span": func() (*fl.Instance, Config, congest.Span, int64) {
			return inst, cfg, spans[1], 3
		},
		"wrong seed": func() (*fl.Instance, Config, congest.Span, int64) {
			return inst, cfg, spans[0], 4
		},
		"wrong k": func() (*fl.Instance, Config, congest.Span, int64) {
			return inst, Config{K: 4}, spans[0], 3
		},
	}
	for name, tc := range cases {
		ci, cc, span, seed := tc()
		if _, err := ResumeShard(ci, cc, span, seed, image, &logTransport{}, nil); err == nil {
			t.Errorf("%s: ResumeShard accepted a mismatched image", name)
		}
	}
	if _, err := ResumeShard(inst, cfg, spans[0], 3, image[:len(image)-1], &logTransport{}, nil); err == nil {
		t.Error("ResumeShard accepted a truncated image")
	}
}

// TestFileSinkAtomicity exercises the durable sink: the image lands at the
// path, survives being overwritten by a newer one, and never leaves a temp
// file behind.
func TestFileSinkAtomicity(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "shard0.ckpt")
	sink := NewFileSink(path)
	if err := sink.Checkpoint(1, []byte("first")); err != nil {
		t.Fatal(err)
	}
	if err := sink.Checkpoint(2, []byte("second")); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "second" {
		t.Errorf("sink kept %q, want newest image", got)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("sink left %d entries in dir, want just the image", len(entries))
	}
}
