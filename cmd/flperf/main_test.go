package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dfl/internal/core"
	"dfl/internal/fl"
	"dfl/internal/gen"
)

// tinyWorkloads builds every registered workload at test size with the
// constructor the registry uses.
func tinyWorkloads() map[string]workload {
	return map[string]workload{
		"solve_mid": solveWorkload("solve_mid", 2, 2, solveSpec{
			inst: gen.Uniform{M: 8, NC: 40, Density: 0.5, MinDegree: 1}, instances: 1, k: 4}),
		"solve_large": solveWorkload("solve_large", 2, 2, solveSpec{
			inst: gen.Uniform{M: 6, NC: 80, Density: 0.4, MinDegree: 1}, instances: 1, k: 4}),
		"solve_chaos": solveWorkload("solve_chaos", 2, 2, solveSpec{
			inst: gen.Uniform{M: 12, NC: 60, Density: 0.6, MinDegree: 2}, instances: 2, k: 16, chaos: true}),
		"engine_dense":  engineWorkload("engine_dense", 2, engineSpec{n: 64, stride: 1, rounds: 6, shards: 2}),
		"engine_sparse": engineWorkload("engine_sparse", 2, engineSpec{n: 2000, stride: 100, rounds: 8}),
		"fleet_udp": fleetWorkload("fleet_udp", 2, 2, fleetSpec{
			inst: gen.Uniform{M: 8, NC: 30, Density: 0.5, MinDegree: 1}, instances: 2, k: 8, shards: 2}),
	}
}

type benchFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBench(t *testing.T) benchFile {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchFile
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestRegistryMatchesBenchmark pins the registry, the per-layer table and
// BENCHMARK.json to one another.
func TestRegistryMatchesBenchmark(t *testing.T) {
	b := readBench(t)
	reg := workloads()
	if len(reg) != len(b.Workloads) {
		t.Fatalf("registry has %d workloads, BENCHMARK.json %d", len(reg), len(b.Workloads))
	}
	tiny := tinyWorkloads()
	for i, w := range reg {
		if w.name != b.Workloads[i].Name {
			t.Errorf("workload %d: registry %q, BENCHMARK.json %q", i, w.name, b.Workloads[i].Name)
		}
		if _, ok := tiny[w.name]; !ok {
			t.Errorf("workload %q has no test-size variant", w.name)
		}
	}
	if len(perLayer) != len(b.PerLayer) {
		t.Fatalf("per-layer table has %d metrics, BENCHMARK.json %d", len(perLayer), len(b.PerLayer))
	}
	for i, l := range perLayer {
		if l.name != b.PerLayer[i].Name || l.unit != b.PerLayer[i].Unit {
			t.Errorf("per-layer %d: table %s/%s, BENCHMARK.json %s/%s", i, l.name, l.unit, b.PerLayer[i].Name, b.PerLayer[i].Unit)
		}
	}
}

// TestWorkloadsEmitEveryMetric runs every workload at test size, untraced
// and traced, and checks that each run reports every metric BENCHMARK.json
// lists for it, with its unit, and that no unit failed.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	b := readBench(t)
	for name, w := range tinyWorkloads() {
		for _, traced := range []bool{false, true} {
			label := name + "/untraced"
			want := b.EndToEnd
			if traced {
				label = name + "/traced"
				want = b.PerLayer
			}
			t.Run(label, func(t *testing.T) {
				t.Parallel()
				res, err := run(w, 7, 20*time.Millisecond, traced)
				if err != nil {
					t.Fatal(err)
				}
				if res.Failed != 0 || !res.Correct {
					t.Fatalf("%d of %d units failed", res.Failed, res.Attempted)
				}
				if ff := res.Exact["fail_frac"]; ff.Value != 0 || ff.Unit != "ratio" {
					t.Errorf("fail_frac = %+v", ff)
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("reported %d metrics, BENCHMARK.json lists %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok {
						t.Errorf("metric %s missing", m.Name)
						continue
					}
					if got.Unit != m.Unit {
						t.Errorf("metric %s unit %q, want %q", m.Name, got.Unit, m.Unit)
					}
				}
			})
		}
	}
}

// TestTracedSolveIsAttributed checks the traced decomposition of a Solve:
// the phases it reports must account for the unit.
func TestTracedSolveIsAttributed(t *testing.T) {
	res, err := run(tinyWorkloads()["solve_mid"], 3, 20*time.Millisecond, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"congest.init_s", "congest.sweep_s", "congest.tail_s", "congest.round_ms_max", "trace.units"} {
		if v := res.Metrics[name].Value; v <= 0 {
			t.Errorf("%s = %v, want > 0", name, v)
		}
	}
	if v := res.Metrics["trace.unattributed_frac"].Value; v > 0.05 {
		t.Errorf("trace.unattributed_frac = %v, want <= 0.05", v)
	}
	// The overhead compares the Solve alone, not the unit's extra Derive,
	// graph build and Certify calls.
	for _, tr := range res.traces {
		root := tr.spans[0]
		if tr.wall <= 0 || tr.wall.Nanoseconds() >= root.End-root.Start {
			t.Errorf("unit %d: traced Solve %v, want positive and shorter than the unit's %dns", tr.unit, tr.wall, root.End-root.Start)
		}
	}
}

// tamperRunner corrupts the outcome of every unit after the first, after
// the unit ran and before its check.
type tamperRunner struct {
	runner
	unitFn func(i int) (outcome, error)
}

func (tr tamperRunner) unit(i int, _ *unitTrace) (outcome, error) { return tr.unitFn(i) }

// runTampered runs w with every unit but the first tampered by unitFn and
// checks that exactly those units counted as failed.
func runTampered(t *testing.T, w workload, wrap func(r runner) func(i int) (outcome, error)) {
	t.Helper()
	setup := w.setup
	w.setup = func(seed int64) (runner, error) {
		r, err := setup(seed)
		if err != nil {
			return nil, err
		}
		return tamperRunner{runner: r, unitFn: wrap(r)}, nil
	}
	res, err := run(w, 5, 20*time.Millisecond, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed != res.Attempted-1 {
		t.Fatalf("%d of %d units failed, want all but the first", res.Failed, res.Attempted)
	}
	if ff := res.Exact["fail_frac"].Value; ff <= 0 {
		t.Fatalf("fail_frac = %v with tampered units", ff)
	}
}

// TestTamperedSolutionFails flips one client's assignment in each solved
// unit: the check must count the unit as failed.
func TestTamperedSolutionFails(t *testing.T) {
	w := solveWorkload("solve_mid", 1, 3, solveSpec{inst: gen.Uniform{M: 8, NC: 40, Density: 0.5, MinDegree: 1}, instances: 1, k: 4})
	runTampered(t, w, func(r runner) func(int) (outcome, error) {
		return func(i int) (outcome, error) {
			out, err := r.unit(i, nil)
			if err == nil && i > 0 {
				out.sol.Assign[0] = (out.sol.Assign[0] + 1) % len(out.sol.Open)
			}
			return out, err
		}
	})
}

// TestTamperedFragmentFails flips one client's assignment in a fragment
// after the gateway collected it: the unit must count as failed.
func TestTamperedFragmentFails(t *testing.T) {
	w := fleetWorkload("fleet_udp", 1, 3, fleetSpec{inst: gen.Uniform{M: 8, NC: 30, Density: 0.5, MinDegree: 1}, instances: 1, k: 8, shards: 2})
	runTampered(t, w, func(r runner) func(int) (outcome, error) {
		f := r.(*fleetRunner)
		return func(i int) (outcome, error) {
			inst, seed := f.slot(i)
			wire, _, err := f.deploy(inst, seed, nil)
			if err != nil {
				return outcome{}, err
			}
			if i > 0 {
				last := len(wire) - 1
				wire[last] = flipAssignment(t, wire[last], inst)
			}
			return f.assemble(inst, wire, nil)
		}
	})
}

// flipAssignment reassigns the first assigned client of an encoded
// fragment to the next facility.
func flipAssignment(t *testing.T, p []byte, inst *fl.Instance) []byte {
	frag, err := core.DecodeFragment(p, inst.M(), inst.NC())
	if err != nil {
		t.Error(err)
		return p
	}
	for c := range frag.Clients {
		if a := frag.Clients[c].Assigned; a != fl.Unassigned {
			frag.Clients[c].Assigned = (a + 1) % inst.M()
			return frag.Encode(nil)
		}
	}
	t.Error("fragment has no assigned client")
	return p
}

// TestCalibration checks the yardstick's share of the run and the scale.
func TestCalibration(t *testing.T) {
	var c calibration
	c.after(0)
	if len(c.times) != 1 {
		t.Fatalf("after(0) ran the yardstick %d times, want once", len(c.times))
	}
	const measured = 100 * time.Millisecond
	c.after(measured)
	if want := time.Duration(yardstickShare * float64(measured)); c.spent < want {
		t.Fatalf("yardstick took %v of %v, want at least %v", c.spent, measured, want)
	}
	if got, want := c.scale(), yardstickNominal/median(c.times); got != want {
		t.Fatalf("scale = %v, want %v", got, want)
	}
}

func TestAgree(t *testing.T) {
	dir := t.TempDir()
	bench := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(bench, []byte(`{"end_to_end":[{"name":"p50_s","bound":0.1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	write := func(name string, p50s []float64, cost float64) string {
		var lines []string
		for _, v := range p50s {
			r := result{Workload: "w", Seed: 1,
				Metrics: map[string]metric{"p50_s": {v, "s"}},
				Exact:   map[string]metric{"cost": {cost, "cost"}}}
			line, err := json.Marshal(r)
			if err != nil {
				t.Fatal(err)
			}
			lines = append(lines, string(line))
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("a", []float64{1.00, 1.01, 0.99, 1.00, 1.02}, 7)
	for _, tc := range []struct {
		name    string
		p50s    []float64
		cost    float64
		verdict string // for p50_s
		fail    bool
	}{
		{"same", []float64{1.01, 1.00, 1.02, 0.99, 1.00}, 7, "agree", false},
		{"slower", []float64{1.30, 1.31, 1.29, 1.30, 1.32}, 7, "exceeds", true},
		{"noisy", []float64{0.6, 1.9, 1.3, 0.7, 2.0}, 7, "unresolved", false},
		{"cost", []float64{1.00, 1.00, 1.00, 1.00, 1.00}, 8, "agree", true},
	} {
		var out strings.Builder
		err := runAgree(bench, base, write(tc.name, tc.p50s, tc.cost), &out)
		if (err != nil) != tc.fail {
			t.Errorf("%s: err = %v, want failure %v\n%s", tc.name, err, tc.fail, out.String())
		}
		found := false
		for _, line := range strings.Split(out.String(), "\n") {
			f := strings.Fields(line)
			found = found || len(f) > 2 && f[1] == "p50_s" && f[2] == tc.verdict
		}
		if !found {
			t.Errorf("%s: want p50_s %s in\n%s", tc.name, tc.verdict, out.String())
		}
	}
}

// TestQuartiles pins the quartile method to Python's
// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
func TestQuartiles(t *testing.T) {
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
}
