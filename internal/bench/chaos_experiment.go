package bench

import (
	"fmt"
	"strconv"
	"strings"

	"dfl/internal/congest"
	"dfl/internal/core"
	"dfl/internal/gen"
)

// ParseFaultSpec parses the compact fault-schedule syntax of the flbench
// -faults flag: comma-separated tokens, each one fault feature.
//
//	drop=P        drop each sweep message with probability P
//	drop=P@R      ... but only in rounds < R (explicit window)
//	dup=P         duplicate each delivered message with probability P
//	delay=P@D     delay each message with probability P by 1..D rounds
//	crash=ID@R    crash node ID at round R (repeatable)
//	recover=ID@R  recover node ID at round R (repeatable, needs crash)
//	burst=A-B     drop everything in rounds [A,B) (repeatable)
//	corrupt=P     corrupt each delivered message with probability P
//	corrupt=P@R   ... but only in rounds < R (explicit window)
//	byz=ID@R      node ID turns byzantine at round R (repeatable)
//
// Example: "drop=0.2,crash=3@5,recover=3@20,burst=10-12". Validation
// beyond syntax (probability ranges, node ids, window sanity) is done by
// the engine when the schedule is run.
func ParseFaultSpec(spec string) (congest.Faults, error) {
	var f congest.Faults
	if strings.TrimSpace(spec) == "" {
		return f, nil
	}
	for _, tok := range strings.Split(spec, ",") {
		tok = strings.TrimSpace(tok)
		key, val, ok := strings.Cut(tok, "=")
		if !ok || val == "" {
			return f, fmt.Errorf("bench: fault token %q is not key=value", tok)
		}
		switch key {
		case "drop":
			ps, rs, windowed := strings.Cut(val, "@")
			p, err := strconv.ParseFloat(ps, 64)
			if err != nil {
				return f, fmt.Errorf("bench: drop probability %q: %w", ps, err)
			}
			f.DropProb = p
			if windowed {
				r, err := strconv.Atoi(rs)
				if err != nil {
					return f, fmt.Errorf("bench: drop window %q: %w", rs, err)
				}
				f.DropUntilRound = r
			}
		case "dup":
			p, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return f, fmt.Errorf("bench: dup probability %q: %w", val, err)
			}
			f.DupProb = p
		case "delay":
			ps, ds, ok := strings.Cut(val, "@")
			if !ok {
				return f, fmt.Errorf("bench: delay token %q needs P@D", tok)
			}
			p, err := strconv.ParseFloat(ps, 64)
			if err != nil {
				return f, fmt.Errorf("bench: delay probability %q: %w", ps, err)
			}
			d, err := strconv.Atoi(ds)
			if err != nil {
				return f, fmt.Errorf("bench: delay bound %q: %w", ds, err)
			}
			f.DelayProb, f.MaxDelay = p, d
		case "crash", "recover":
			ids, rs, ok := strings.Cut(val, "@")
			if !ok {
				return f, fmt.Errorf("bench: %s token %q needs ID@R", key, tok)
			}
			id, err := strconv.Atoi(ids)
			if err != nil {
				return f, fmt.Errorf("bench: %s node %q: %w", key, ids, err)
			}
			r, err := strconv.Atoi(rs)
			if err != nil {
				return f, fmt.Errorf("bench: %s round %q: %w", key, rs, err)
			}
			if key == "crash" {
				if f.CrashAtRound == nil {
					f.CrashAtRound = make(map[int]int)
				}
				f.CrashAtRound[id] = r
			} else {
				if f.RecoverAtRound == nil {
					f.RecoverAtRound = make(map[int]int)
				}
				f.RecoverAtRound[id] = r
			}
		case "corrupt":
			ps, rs, windowed := strings.Cut(val, "@")
			p, err := strconv.ParseFloat(ps, 64)
			if err != nil {
				return f, fmt.Errorf("bench: corrupt probability %q: %w", ps, err)
			}
			f.CorruptProb = p
			if windowed {
				r, err := strconv.Atoi(rs)
				if err != nil {
					return f, fmt.Errorf("bench: corrupt window %q: %w", rs, err)
				}
				f.CorruptUntilRound = r
			}
		case "byz":
			ids, rs, ok := strings.Cut(val, "@")
			if !ok {
				return f, fmt.Errorf("bench: byz token %q needs ID@R", tok)
			}
			id, err := strconv.Atoi(ids)
			if err != nil {
				return f, fmt.Errorf("bench: byz node %q: %w", ids, err)
			}
			r, err := strconv.Atoi(rs)
			if err != nil {
				return f, fmt.Errorf("bench: byz round %q: %w", rs, err)
			}
			if f.ByzantineFromRound == nil {
				f.ByzantineFromRound = make(map[int]int)
			}
			f.ByzantineFromRound[id] = r
		case "burst":
			as, bs, ok := strings.Cut(val, "-")
			if !ok {
				return f, fmt.Errorf("bench: burst token %q needs A-B", tok)
			}
			a, err := strconv.Atoi(as)
			if err != nil {
				return f, fmt.Errorf("bench: burst start %q: %w", as, err)
			}
			b, err := strconv.Atoi(bs)
			if err != nil {
				return f, fmt.Errorf("bench: burst end %q: %w", bs, err)
			}
			f.Bursts = append(f.Bursts, congest.RoundRange{FromRound: a, ToRound: b})
		default:
			return f, fmt.Errorf("bench: unknown fault key %q (have drop, dup, delay, crash, recover, burst, corrupt, byz)", key)
		}
	}
	return f, nil
}

// ChaosOverhead regenerates Table 12: what adversarial fault schedules
// cost, and what the self-healing machinery buys back. Every schedule runs
// twice — unprotected and under the reliable-delivery shim — and each run
// is re-certified through core.Certify on top of Solve's internal check.
// When Params.FaultSpec is set, the default matrix is replaced by that one
// schedule (plus the fault-free baseline).
func ChaosOverhead(p Params) ([]Table, error) {
	m, nc := 24, 120
	inst, err := gen.Uniform{M: m, NC: nc, Density: 0.6, MinDegree: 2}.Generate(p.Seed)
	if err != nil {
		return nil, err
	}
	lb, err := lowerBound(inst)
	if err != nil {
		return nil, err
	}

	type schedule struct {
		name string
		f    congest.Faults
	}
	schedules := []schedule{{name: "none"}}
	if p.FaultSpec != "" {
		f, err := ParseFaultSpec(p.FaultSpec)
		if err != nil {
			return nil, err
		}
		schedules = append(schedules, schedule{name: p.FaultSpec, f: f})
	} else {
		schedules = append(schedules,
			schedule{name: "drop=0.25", f: congest.Faults{DropProb: 0.25}},
			schedule{name: "drop=0.5", f: congest.Faults{DropProb: 0.5}},
			// Crash rounds sit deep in the sweep (most clients have
			// connected by then — see F3) so the crashes actually strand
			// clients and the repair pass shows up in the table.
			schedule{name: "crash 2 facilities", f: congest.Faults{
				CrashAtRound: map[int]int{1: 25, 4: 41},
			}},
			schedule{name: "crash+recover", f: congest.Faults{
				CrashAtRound:   map[int]int{2: 25},
				RecoverAtRound: map[int]int{2: 45},
			}},
			schedule{name: "dup=0.3 drop=0.3", f: congest.Faults{DupProb: 0.3, DropProb: 0.3}},
		)
	}

	t := Table{
		ID:    "T12",
		Title: "Self-healing under adversarial fault schedules (K=16)",
		Note: fmt.Sprintf("uniform m=%d nc=%d; probabilistic faults confined to the sweep; avg of %d seeds; retransmit/ack traffic is link-layer, not protocol messages",
			m, nc, p.runs()),
		Columns: []string{"schedule", "reliable", "ratio", "fallback", "repaired", "dead", "dropped", "retx", "acks", "certified"},
	}
	for _, sc := range schedules {
		for _, budget := range []int{0, 2} {
			if budget > 0 && sc.name == "none" {
				continue // the shim is a no-op without faults; skip the duplicate row
			}
			var (
				total    int64
				fallback int
				repaired int
				dead     int
				dropped  int64
				retx     int64
				acks     int64
			)
			for s := 0; s < p.runs(); s++ {
				opts := []core.Option{core.WithSeed(p.Seed + int64(s)), core.WithFaults(sc.f)}
				if budget > 0 {
					opts = append(opts, core.WithReliableDelivery(budget))
				}
				sol, rep, err := core.Solve(inst, core.Config{K: 16}, opts...)
				if err != nil {
					return nil, fmt.Errorf("schedule %q: %w", sc.name, err)
				}
				if err := core.Certify(inst, sol, rep); err != nil {
					return nil, fmt.Errorf("schedule %q failed certification: %w", sc.name, err)
				}
				total += rep.Cost
				fallback += rep.CleanupClients
				repaired += rep.RepairedClients
				dead += len(rep.DeadFacilities) + len(rep.DeadClients)
				dropped += rep.Net.Dropped
				retx += rep.Net.Retransmits
				acks += rep.Net.Acks
			}
			runs := int64(p.runs())
			rel := "off"
			if budget > 0 {
				rel = fmt.Sprintf("budget=%d", budget)
			}
			t.Add(sc.name, rel, f64(float64(total)/float64(runs)/float64(lb)),
				f64(float64(fallback)/float64(runs)),
				f64(float64(repaired)/float64(runs)),
				f64(float64(dead)/float64(runs)),
				i64(dropped/runs), i64(retx/runs), i64(acks/runs), "ok")
		}
	}
	return []Table{t}, nil
}
