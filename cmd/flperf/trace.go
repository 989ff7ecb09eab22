package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"time"

	"dfl/internal/congest"
)

// perLayer lists every per-layer metric a traced run reports, in output
// order, with its unit. Every workload reports all of them: a layer the
// workload's units never enter reads 0. That is why the layers only some
// workloads reach are shares of the unit's wall time ("_frac") or counts,
// while the absolute times are the round phases every unit has.
var perLayer = []struct{ name, unit string }{
	{"congest.graph_build_s", "s"},
	{"congest.init_s", "s"},
	{"congest.sweep_s", "s"},
	{"congest.tail_s", "s"},
	{"congest.round_ms_p50", "ms"},
	{"congest.round_ms_max", "ms"},
	{"congest.messages_per_round", "count"},
	{"congest.live_per_round", "count"},
	{"congest.senders_per_round", "count"},
	{"congest.dropped", "count"},
	{"congest.duplicated", "count"},
	{"congest.retransmits", "count"},
	{"congest.acks", "count"},
	{"congest.goodput_frac", "ratio"},
	{"core.derive_frac", "ratio"},
	{"core.finish_frac", "ratio"},
	{"core.certify_frac", "ratio"},
	{"core.repaired_clients", "count"},
	{"core.decode_fragment_frac", "ratio"},
	{"core.assemble_frac", "ratio"},
	{"udp.dial_frac", "ratio"},
	{"udp.begin_wait_frac", "ratio"},
	{"udp.begin_wait_max_frac", "ratio"},
	{"udp.send_frac", "ratio"},
	{"udp.gather_wait_frac", "ratio"},
	{"udp.compute_frac", "ratio"},
	{"udp.result_frac", "ratio"},
	{"udp.gateway_run_frac", "ratio"},
	{"udp.remote_msgs_per_round", "count"},
	{"udp.fenced", "count"},
	{"udp.rejected", "count"},
	{"trace.unattributed_frac", "ratio"},
	{"trace.overhead_frac", "ratio"},
	{"trace.units", "count"},
}

// span is one timed interval of a traced unit, written to the spans file
// as one JSON line. Times are nanoseconds since the run's trace origin;
// Parent is the index of the enclosing span in the same unit, -1 for the
// unit's root.
type span struct {
	Unit   int    `json:"unit"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// unitTrace collects what one traced unit measured: its spans, recorded
// around calls into the library's public functions, and the per-layer
// values the runner derives from them.
type unitTrace struct {
	unit   int
	origin time.Time
	spans  []span
	layers map[string]float64
	// wall is the traced counterpart of an untraced unit's timed call: the
	// Solve, Run or deployment alone, without the extra calls a traced
	// unit makes to time layers separately. trace.overhead_frac compares
	// it with the untraced units' wall time.
	wall time.Duration
}

func newUnitTrace(unit int, origin time.Time) *unitTrace {
	return &unitTrace{unit: unit, origin: origin, layers: make(map[string]float64)}
}

// span records [start, end) under parent and returns its id.
func (t *unitTrace) span(name string, parent int, start, end time.Time) int {
	id := len(t.spans)
	t.spans = append(t.spans, span{
		Unit:   t.unit,
		ID:     id,
		Parent: parent,
		Name:   name,
		Start:  start.Sub(t.origin).Nanoseconds(),
		End:    end.Sub(t.origin).Nanoseconds(),
	})
	return id
}

// set records a per-layer value of this unit; it must be a perLayer name.
func (t *unitTrace) set(name string, v float64) { t.layers[name] = v }

// roundTimes records the round-duration layers from consecutive round
// boundaries: b[r] is when round r began (or ended, as long as every entry
// means the same), so each difference is one round.
func (t *unitTrace) roundTimes(b []time.Time) {
	ms := make([]float64, 0, len(b))
	for r := 1; r < len(b); r++ {
		ms = append(ms, float64(b[r].Sub(b[r-1]).Nanoseconds())/1e6)
	}
	if len(ms) == 0 {
		return
	}
	t.set("congest.round_ms_p50", median(ms))
	t.set("congest.round_ms_max", slices.Max(ms))
}

// netStats records the engine's counts for the unit: activity as per-round
// means, and the fault and link-layer traffic as totals.
func (t *unitTrace) netStats(n congest.Stats) {
	if n.Rounds > 0 {
		r := float64(n.Rounds)
		t.set("congest.messages_per_round", float64(n.Messages)/r)
		t.set("congest.live_per_round", float64(n.LiveNodeRounds)/r)
		t.set("congest.senders_per_round", float64(n.Senders)/r)
	}
	t.set("congest.dropped", float64(n.Dropped))
	t.set("congest.duplicated", float64(n.Duplicated))
	t.set("congest.retransmits", float64(n.Retransmits))
	t.set("congest.acks", float64(n.Acks))
	if wire := n.Messages + n.Retransmits + n.Acks; wire > 0 {
		t.set("congest.goodput_frac", float64(n.Messages)/float64(wire))
	}
}

// layerMeans averages each per-layer value over the traced units; a layer
// no unit set reads 0.
func layerMeans(traces []*unitTrace) map[string]float64 {
	out := make(map[string]float64, len(perLayer))
	if len(traces) == 0 {
		return out
	}
	for _, tr := range traces {
		for k, v := range tr.layers {
			out[k] += v
		}
	}
	for k := range out {
		out[k] /= float64(len(traces))
	}
	return out
}

// writeSpans writes every traced unit's spans to path as JSON lines.
func writeSpans(path string, traces []*unitTrace) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, tr := range traces {
		for _, s := range tr.spans {
			if err := enc.Encode(s); err != nil {
				f.Close()
				return fmt.Errorf("spans: %w", err)
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	return nil
}
