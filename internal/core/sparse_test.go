package core

import (
	"fmt"
	"reflect"
	"testing"

	"dfl/internal/congest"
)

// TestDenseEngineMatchesFrontier pins the protocol's dormancy declarations
// (the SleepUntil calls in nodes.go) as sound: the frontier scheduler —
// sequential and sharded — must reproduce the dense reference engine's
// execution exactly, down to the per-round observer stream, under honest,
// lossy, crash-with-recovery, and corrupt+byzantine schedules. Any node
// that oversleeps a round in which it would have changed state, sent, or
// drawn randomness shows up here as a diverging trace or report.
func TestDenseEngineMatchesFrontier(t *testing.T) {
	inst := chaosInstance(t)
	cfg := Config{K: 16}

	schedules := []struct {
		name string
		opts []Option
	}{
		{name: "honest"},
		{name: "drop", opts: []Option{WithFaults(congest.Faults{DropProb: 0.3})}},
		{name: "crash_recover", opts: []Option{WithFaults(congest.Faults{
			CrashAtRound:   map[int]int{5: 11, 14: 13},
			RecoverAtRound: map[int]int{5: 23},
		})}},
		{name: "corrupt_byzantine", opts: []Option{WithFaults(congest.Faults{
			CorruptProb:        0.2,
			ByzantineFromRound: map[int]int{2: 0, 7: 0},
		})}},
	}

	type trace struct {
		sol    []int
		open   []bool
		report Report
		stream []string
	}
	run := func(sc []Option, dense bool, shards int) trace {
		var stream []string
		opts := append([]Option{WithSeed(31), WithDenseEngine(dense),
			WithObserver(func(round int, delivered []congest.Message) {
				for _, m := range delivered {
					stream = append(stream, fmt.Sprintf("r%d %d>%d %x", round, m.From, m.To, m.Payload))
				}
			})}, sc...)
		if shards > 0 {
			opts = append(opts, WithParallel(true), WithShards(shards))
		}
		sol, rep, err := Solve(inst, cfg, opts...)
		if err != nil {
			t.Fatal(err)
		}
		return trace{sol: sol.Assign, open: sol.Open, report: *rep, stream: stream}
	}

	for _, sc := range schedules {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			dense := run(sc.opts, true, 0)
			if len(dense.stream) == 0 {
				t.Fatal("schedule too tame: nothing observed")
			}
			check := func(label string, got trace) {
				if !reflect.DeepEqual(got.sol, dense.sol) || !reflect.DeepEqual(got.open, dense.open) {
					t.Fatalf("%s: solution diverged from dense reference", label)
				}
				if !reflect.DeepEqual(got.report, dense.report) {
					t.Fatalf("%s: report diverged:\n%+v\n%+v", label, got.report, dense.report)
				}
				if fmt.Sprint(got.stream) != fmt.Sprint(dense.stream) {
					t.Fatalf("%s: observer stream diverged (%d vs %d deliveries)",
						label, len(got.stream), len(dense.stream))
				}
			}
			check("frontier-seq", run(sc.opts, false, 0))
			for _, shards := range []int{2, 8} {
				check(fmt.Sprintf("frontier-shards=%d", shards), run(sc.opts, false, shards))
			}
		})
	}
}
