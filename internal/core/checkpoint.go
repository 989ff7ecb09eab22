package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"dfl/internal/congest"
	"dfl/internal/fl"
)

// This file is the recovery rung of the degradation ladder: a shard that
// dies no longer has to stay masked for the rest of the run. SolveShard can
// snapshot its progress to a CheckpointSink, and ResumeShard restores a
// killed shard with bit-identical continuation so the transport layer can
// readmit it at a round barrier.
//
// The checkpoint is not a dump of node structs — it is a replayable log of
// the shard's remote inputs. Shard execution is deterministic given its
// remote inbound messages (node seeds derive from (seed, id); inboxes are
// delivered born-sorted; RNG streams are pure functions of the draw
// sequence), so the log *is* the state: ResumeShard re-executes rounds
// [0, r) with the logged inputs and lands on exactly the state the
// uninterrupted run had after round r — including RNG positions, sleep
// timers and every staged announcement. Replay also regenerates every
// message the pre-crash incarnation ever sent, byte for byte, which is what
// makes readmission sound: as long as the log covers every round the dead
// process acted in (the default cadence appends every round), the resumed
// shard never retracts an announcement a survivor already acted on, and the
// whole crash/restart window degenerates to a transient loss burst — a
// fault class the protocol is already certified against.

// ckptVersion is the checkpoint wire ABI version; bump on any layout
// change. The codec is fail-closed like every other decoder in the repo.
const ckptVersion = 1

// ckptLimit bounds the codec's uvarint fields against hostile input.
const ckptLimit = 1 << 30

var errCheckpoint = errors.New("core: malformed checkpoint")

// Checkpoint is one shard's recovery image: the deployment identity it was
// taken under and the per-round log of remote inbound messages. Log[r]
// holds the messages Gather returned for round r, so len(Log) is the
// number of fully completed rounds.
type Checkpoint struct {
	Span congest.Span
	M    int   // facilities in the instance
	NC   int   // clients in the instance
	K    int   // cfg.K, the protocol trade-off parameter
	Seed int64 // deployment seed
	Log  [][]congest.Message
}

// Rounds returns the number of completed rounds the checkpoint covers:
// resume replays rounds [0, Rounds()) and continues live at Rounds().
func (c *Checkpoint) Rounds() int { return len(c.Log) }

// Encode appends the checkpoint's wire form to buf:
//
//	version(1) | lo | hi | m | nc | k | seed varint | rounds
//	then per round: count | count × (from | to | len | payload)
//
// All integers uvarint except the signed seed.
func (c *Checkpoint) Encode(buf []byte) []byte {
	buf = append(buf, ckptVersion)
	buf = appendCkptHeader(buf, c.Span, c.M, c.NC, c.K, c.Seed)
	buf = binary.AppendUvarint(buf, uint64(len(c.Log)))
	for _, msgs := range c.Log {
		buf = appendCkptRound(buf, msgs)
	}
	return buf
}

func appendCkptHeader(buf []byte, span congest.Span, m, nc, k int, seed int64) []byte {
	buf = binary.AppendUvarint(buf, uint64(span.Lo))
	buf = binary.AppendUvarint(buf, uint64(span.Hi))
	buf = binary.AppendUvarint(buf, uint64(m))
	buf = binary.AppendUvarint(buf, uint64(nc))
	buf = binary.AppendUvarint(buf, uint64(k))
	return binary.AppendVarint(buf, seed)
}

func appendCkptRound(buf []byte, msgs []congest.Message) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(msgs)))
	for _, msg := range msgs {
		buf = binary.AppendUvarint(buf, uint64(msg.From))
		buf = binary.AppendUvarint(buf, uint64(msg.To))
		buf = binary.AppendUvarint(buf, uint64(len(msg.Payload)))
		buf = append(buf, msg.Payload...)
	}
	return buf
}

// DecodeCheckpoint parses an Encode'd checkpoint. It is fail-closed in the
// repo's usual sense: unknown version, truncation, out-of-range spans,
// senders inside the span (remote inputs must be remote), recipients
// outside it, unregistered or over-budget payloads, and trailing bytes all
// reject; it never panics on arbitrary bytes.
func DecodeCheckpoint(p []byte) (*Checkpoint, error) {
	if len(p) == 0 {
		return nil, fmt.Errorf("%w: empty", errCheckpoint)
	}
	if p[0] != ckptVersion {
		return nil, fmt.Errorf("%w: version %d", errCheckpoint, p[0])
	}
	p = p[1:]
	next := func(field string) (uint64, error) {
		v, n := binary.Uvarint(p)
		if n <= 0 || v >= ckptLimit {
			return 0, fmt.Errorf("%w: %s field", errCheckpoint, field)
		}
		p = p[n:]
		return v, nil
	}
	var hdr [5]uint64
	for i, field := range []string{"lo", "hi", "m", "nc", "k"} {
		v, err := next(field)
		if err != nil {
			return nil, err
		}
		hdr[i] = v
	}
	seed, n := binary.Varint(p)
	if n <= 0 {
		return nil, fmt.Errorf("%w: seed field", errCheckpoint)
	}
	p = p[n:]
	ck := &Checkpoint{
		Span: congest.Span{Lo: int(hdr[0]), Hi: int(hdr[1])},
		M:    int(hdr[2]), NC: int(hdr[3]), K: int(hdr[4]),
		Seed: seed,
	}
	if ck.Span.Lo >= ck.Span.Hi || ck.Span.Hi > ck.M+ck.NC {
		return nil, fmt.Errorf("%w: span [%d,%d) against %d nodes", errCheckpoint, ck.Span.Lo, ck.Span.Hi, ck.M+ck.NC)
	}
	rounds, err := next("rounds")
	if err != nil {
		return nil, err
	}
	if rounds > uint64(len(p)) {
		// Every round record costs at least one byte; a count beyond the
		// remaining input is a lie, not an allocation request.
		return nil, fmt.Errorf("%w: %d rounds in %d bytes", errCheckpoint, rounds, len(p))
	}
	ck.Log = make([][]congest.Message, rounds)
	for r := range ck.Log {
		count, err := next("message count")
		if err != nil {
			return nil, err
		}
		if count > uint64(len(p)) {
			return nil, fmt.Errorf("%w: round %d claims %d messages in %d bytes", errCheckpoint, r, count, len(p))
		}
		msgs := make([]congest.Message, 0, count)
		for i := uint64(0); i < count; i++ {
			from, err := next("from")
			if err != nil {
				return nil, err
			}
			to, err := next("to")
			if err != nil {
				return nil, err
			}
			plen, err := next("payload length")
			if err != nil {
				return nil, err
			}
			if plen > uint64(len(p)) {
				return nil, fmt.Errorf("%w: truncated payload in round %d", errCheckpoint, r)
			}
			if int(from) >= ck.M+ck.NC || ck.Span.Contains(int(from)) {
				return nil, fmt.Errorf("%w: round %d logs sender %d (must be remote to span [%d,%d))",
					errCheckpoint, r, from, ck.Span.Lo, ck.Span.Hi)
			}
			if !ck.Span.Contains(int(to)) {
				return nil, fmt.Errorf("%w: round %d logs recipient %d outside span [%d,%d)",
					errCheckpoint, r, to, ck.Span.Lo, ck.Span.Hi)
			}
			payload := append([]byte(nil), p[:plen]...)
			p = p[plen:]
			if _, err := congest.ValidatePayload(payload); err != nil {
				return nil, fmt.Errorf("%w: round %d message %d->%d: %v", errCheckpoint, r, from, to, err)
			}
			// from and to are range-checked above, so they fit the int32 ids.
			msgs = append(msgs, congest.Message{From: int32(from), To: int32(to), Payload: payload})
		}
		ck.Log[r] = msgs
	}
	if len(p) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", errCheckpoint, len(p))
	}
	return ck, nil
}

// CheckpointSink receives a shard's encoded recovery image. round is the
// number of completed rounds the image covers. Implementations must make
// each image durable atomically (a torn write must never leave a partial
// image where a complete older one stood) — the codec is fail-closed, so a
// corrupt image rejects the whole resume rather than resuming wrong.
type CheckpointSink interface {
	Checkpoint(round int, data []byte) error
}

// FileSink writes each checkpoint image to one file via write-to-temp plus
// atomic rename, so a SIGKILL mid-write leaves the previous complete image
// in place.
type FileSink struct {
	path string
}

// NewFileSink builds a FileSink writing to path.
func NewFileSink(path string) *FileSink { return &FileSink{path: path} }

// Checkpoint implements CheckpointSink.
func (s *FileSink) Checkpoint(round int, data []byte) error {
	tmp := filepath.Join(filepath.Dir(s.path), fmt.Sprintf(".%s.tmp", filepath.Base(s.path)))
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("core: checkpoint write: %w", err)
	}
	if err := os.Rename(tmp, s.path); err != nil {
		return fmt.Errorf("core: checkpoint rename: %w", err)
	}
	return nil
}

// ckptRecorder wraps a Transport, appending each round's gathered remote
// messages to an incrementally encoded log and shipping a full image to the
// sink after every round. An image per round keeps resume rollback-free:
// every message the pre-crash process sent is regenerated identically on
// replay. A sink failure fails the run: a shard that cannot make its
// progress durable must not pretend it can be recovered.
type ckptRecorder struct {
	inner congest.Transport
	sink  CheckpointSink
	hdr   []byte // encoded header prefix (version..seed), fixed
	body  []byte // encoded round records so far
	round int    // completed rounds recorded
	from  int    // first round whose image is worth sinking (resume skips replayed ones)
}

func newCkptRecorder(inner congest.Transport, sink CheckpointSink, span congest.Span, m, nc, k int, seed int64) *ckptRecorder {
	hdr := append([]byte(nil), ckptVersion)
	hdr = appendCkptHeader(hdr, span, m, nc, k, seed)
	return &ckptRecorder{inner: inner, sink: sink, hdr: hdr}
}

func (r *ckptRecorder) Begin(round int) (congest.RoundStart, error) { return r.inner.Begin(round) }
func (r *ckptRecorder) Send(round int, msgs []congest.Message) error {
	return r.inner.Send(round, msgs)
}

func (r *ckptRecorder) Gather(round int, allHalted bool) ([]congest.Message, error) {
	msgs, err := r.inner.Gather(round, allHalted)
	if err != nil {
		return msgs, err
	}
	r.body = appendCkptRound(r.body, msgs)
	r.round++
	if r.round > r.from {
		image := append([]byte(nil), r.hdr...)
		image = binary.AppendUvarint(image, uint64(r.round))
		image = append(image, r.body...)
		if err := r.sink.Checkpoint(r.round, image); err != nil {
			return msgs, fmt.Errorf("core: checkpoint after round %d: %w", round, err)
		}
	}
	return msgs, nil
}

// replayTransport serves rounds [0, len(log)) from a checkpoint log —
// instant barriers, discarded sends, logged gathers — and delegates every
// later round to the live transport. Discarding the replayed sends is
// correct, not lossy: the pre-crash incarnation already delivered them (or
// they fell in its death window, where the peers have already absorbed the
// loss), and the replay exists only to rebuild local state.
type replayTransport struct {
	log   [][]congest.Message
	inner congest.Transport
}

func (t *replayTransport) Begin(round int) (congest.RoundStart, error) {
	if round < len(t.log) {
		return congest.RoundStart{}, nil
	}
	return t.inner.Begin(round)
}

func (t *replayTransport) Send(round int, msgs []congest.Message) error {
	if round < len(t.log) {
		return nil
	}
	return t.inner.Send(round, msgs)
}

func (t *replayTransport) Gather(round int, allHalted bool) ([]congest.Message, error) {
	if round < len(t.log) {
		return t.log[round], nil
	}
	return t.inner.Gather(round, allHalted)
}

// SolveShardCheckpointed is SolveShard with recovery snapshots: the shard's
// remote-input log is encoded incrementally and shipped to sink after every
// completed round; a nil sink checkpoints nothing. A later ResumeShard from
// any of those images continues the run bit-identically.
func SolveShardCheckpointed(inst *fl.Instance, cfg Config, span congest.Span, seed int64, tr congest.Transport, sink CheckpointSink) (*Fragment, error) {
	if sink != nil {
		tr = newCkptRecorder(tr, sink, span, inst.M(), inst.NC(), cfg.K, seed)
	}
	return SolveShard(inst, cfg, span, seed, tr)
}

// ResumeShard restores a shard from a checkpoint image and continues it on
// tr: rounds covered by the image replay locally (instant, no transport
// traffic), later rounds run live. The restored execution is byte-identical
// to the uninterrupted run — same node states, same RNG positions, same
// regenerated messages — so the fragment it eventually commits is the one
// the dead process would have committed. The image must match the
// deployment exactly (span, instance shape, K, seed); any mismatch rejects
// rather than resuming a different run's state. Checkpointing continues
// through sink, if non-nil, for the rounds beyond the image.
func ResumeShard(inst *fl.Instance, cfg Config, span congest.Span, seed int64, image []byte, tr congest.Transport, sink CheckpointSink) (*Fragment, error) {
	ckpt, err := DecodeCheckpoint(image)
	if err != nil {
		return nil, err
	}
	if ckpt.Span != span || ckpt.M != inst.M() || ckpt.NC != inst.NC() || ckpt.K != cfg.K || ckpt.Seed != seed {
		return nil, fmt.Errorf("core: checkpoint identity span=[%d,%d) m=%d nc=%d k=%d seed=%d does not match deployment span=[%d,%d) m=%d nc=%d k=%d seed=%d",
			ckpt.Span.Lo, ckpt.Span.Hi, ckpt.M, ckpt.NC, ckpt.K, ckpt.Seed,
			span.Lo, span.Hi, inst.M(), inst.NC(), cfg.K, seed)
	}
	var rt congest.Transport = &replayTransport{log: ckpt.Log, inner: tr}
	if sink != nil {
		rec := newCkptRecorder(rt, sink, span, inst.M(), inst.NC(), cfg.K, seed)
		rec.from = ckpt.Rounds() // replayed rounds are already durable; don't re-sink them
		rt = rec
	}
	return SolveShard(inst, cfg, span, seed, rt)
}
