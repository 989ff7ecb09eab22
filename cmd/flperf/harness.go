package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"dfl/internal/congest"
	"dfl/internal/core"
	"dfl/internal/fl"
)

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	// cycle is how many slots the units rotate through: unit i runs slot
	// i%cycle, with protocol seed i%cycle on that slot's instance. Each
	// slot's output is checked against its first run, and the exact
	// per-unit means cover every slot once.
	cycle int
	// minUnits is the fewest timed units a run reports on, even when they
	// overrun the requested measuring time.
	minUnits int
	// setup builds the workload's inputs from the run seed. The harness
	// times it several times and reports the median as setup_s.
	setup func(seed int64) (runner, error)
}

// runner executes the units of one run on inputs built by setup.
type runner interface {
	// unit runs unit i inside the timed window. A non-nil tr makes it a
	// traced unit: it records spans and per-layer values into tr, and may
	// make extra calls to time layers the untraced unit runs internally.
	unit(i int, tr *unitTrace) (outcome, error)
	// check verifies unit i's outcome outside the timed window; an error
	// counts the unit as failed.
	check(i int, out outcome) error
}

// outcome is what a unit produced: the model-level counts every workload
// reports, plus whatever its check needs.
type outcome struct {
	rounds   int
	messages int64
	cost     int64         // certified solution cost; 0 on engine units
	stats    congest.Stats // engine units
	sol      *fl.Solution  // solve and fleet units
	rep      *core.Report  // solve and fleet units
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is everything one run reports. The last line of standard output
// carries Correct, Attempted, Failed and Metrics; the -json record carries
// all of it.
type result struct {
	Workload    string `json:"workload"`
	Seed        int64  `json:"seed"`
	Trace       bool   `json:"trace"`
	Nproc       int    `json:"nproc"`
	Gomaxprocs  int    `json:"gomaxprocs"`
	GoVersion   string `json:"go"`
	SetupBuilds int    `json:"setup_builds"`
	Units       int    `json:"units"`
	TracedUnits int    `json:"traced_units"`
	Correct     bool   `json:"correct"`
	Attempted   int    `json:"attempted"`
	Failed      int    `json:"failed"`
	// Metrics holds the reported metrics. Its timings are in calibrated
	// seconds (calibrate.go).
	Metrics map[string]metric `json:"metrics"`
	// Wall holds the same timings in wall-clock seconds, and the
	// yardstick's median time during set-up and during the units.
	Wall map[string]metric `json:"wall"`
	// P90 is the untraced unit time's 90th percentile, in calibrated
	// seconds, on runs with at least 100 untraced units, so that at least
	// ten samples lie beyond it.
	P90 *metric `json:"p90_s,omitempty"`
	// Exact holds the deterministic per-unit means (rounds, messages, cost)
	// and fail_frac, which two runs of one commit on one seed must match
	// exactly.
	Exact map[string]metric `json:"exact"`
	// traces holds a traced run's units for the spans file.
	traces []*unitTrace
}

// Set-up is repeated at least minSetupBuilds times, and more while the
// builds have taken under minSetupWall, so a cheap set-up still reports a
// median of many samples.
const (
	minSetupBuilds = 5
	maxSetupBuilds = 200
	minSetupWall   = time.Second
)

// run measures workload w on seed for about measure of timed units. An
// untraced run reports the end-to-end metrics; a traced run alternates
// traced and untraced cycles of units and reports the per-layer metrics. It returns
// an error only for a harness failure; failed units are counted instead.
func run(w workload, seed int64, measure time.Duration, traced bool) (*result, error) {
	var setupTimes []float64
	var r runner
	// The yardstick runs right after a collection, for the time measured
	// before it, so that no collection of the measured calls' garbage
	// overlaps it.
	var setupCal calibration
	var setupWall, pending time.Duration
	for b := 0; b < minSetupBuilds || (b < maxSetupBuilds && setupWall < minSetupWall); b++ {
		r = nil // let the previous build's inputs be collected first
		runtime.GC()
		setupCal.after(pending)
		t0 := time.Now()
		var err error
		r, err = w.setup(seed)
		pending = time.Since(t0)
		setupTimes = append(setupTimes, pending.Seconds())
		if err != nil {
			return nil, fmt.Errorf("%s: setup: %w", w.name, err)
		}
		setupWall += pending
	}
	runtime.GC()
	setupCal.after(pending)

	res := &result{
		Workload:    w.name,
		Seed:        seed,
		Trace:       traced,
		Nproc:       runtime.NumCPU(),
		Gomaxprocs:  runtime.GOMAXPROCS(0),
		GoVersion:   runtime.Version(),
		SetupBuilds: len(setupTimes),
		Metrics:     make(map[string]metric),
		Wall:        make(map[string]metric),
		Exact:       make(map[string]metric),
	}

	// One untraced warm-up unit fills caches and finishes lazy set-up; its
	// check also records the reference for protocol seed 0.
	runtime.GC()
	if out, err := r.unit(0, nil); err != nil {
		return nil, fmt.Errorf("%s: warm-up unit: %w", w.name, err)
	} else if err := r.check(0, out); err != nil {
		return nil, fmt.Errorf("%s: warm-up unit: %w", w.name, err)
	}

	var (
		walls, tracedWalls []float64 // tracedWalls: each traced unit's tr.wall
		rates              []float64 // rounds per second, per unit
		mallocs            uint64
		traces             []*unitTrace
		firstOut           = make([]*outcome, w.cycle)
		before, after      runtime.MemStats
		cal                calibration
	)
	pending = 0
	origin := time.Now()
	for i := 0; i < w.minUnits || time.Since(origin) < measure || traced && len(traces) == 0; i++ {
		// A traced run alternates whole cycles, so the traced and untraced
		// units cover the same slots.
		var tr *unitTrace
		if traced && (i/w.cycle)%2 == 1 {
			tr = newUnitTrace(i, origin)
		}
		runtime.GC()
		cal.after(pending)
		pending = 0
		runtime.ReadMemStats(&before)
		t0 := time.Now()
		out, err := r.unit(i, tr)
		d := time.Since(t0)
		wall := d.Seconds()
		runtime.ReadMemStats(&after)

		res.Attempted++
		if err == nil {
			err = r.check(i, out)
		}
		if err != nil {
			res.Failed++
			fmt.Fprintf(os.Stderr, "flperf: %s unit %d failed: %v\n", w.name, i, err)
		}
		if tr != nil {
			tracedWalls = append(tracedWalls, tr.wall.Seconds())
			traces = append(traces, tr)
			continue
		}
		walls = append(walls, wall)
		rates = append(rates, float64(out.rounds)/wall)
		mallocs += after.Mallocs - before.Mallocs
		if slot := i % w.cycle; err == nil && firstOut[slot] == nil {
			o := out
			firstOut[slot] = &o
		}
		pending = d
	}
	runtime.GC()
	cal.after(pending)
	res.Units = len(walls)
	res.TracedUnits = len(traces)
	res.Correct = res.Failed == 0
	if len(walls) == 0 {
		return nil, fmt.Errorf("%s: no untraced unit ran", w.name)
	}

	res.Exact["fail_frac"] = metric{float64(res.Failed) / float64(res.Attempted), "ratio"}
	if len(walls) >= 100 {
		res.P90 = &metric{quantile(walls, 0.9) * cal.scale(), "s"}
		res.Wall["p90_s"] = metric{quantile(walls, 0.9), "s"}
	}
	var seeds int
	var sumRounds, sumMsgs, sumCost float64
	for _, o := range firstOut {
		if o == nil {
			continue
		}
		seeds++
		sumRounds += float64(o.rounds)
		sumMsgs += float64(o.messages)
		sumCost += float64(o.cost)
	}
	if seeds == w.cycle {
		res.Exact["rounds"] = metric{sumRounds / float64(seeds), "count"}
		res.Exact["messages"] = metric{sumMsgs / float64(seeds), "count"}
		if sumCost > 0 {
			res.Exact["cost"] = metric{sumCost / float64(seeds), "cost"}
		}
	}

	if traced {
		layers := layerMeans(traces)
		layers["trace.units"] = float64(len(traces))
		if len(tracedWalls) > 0 {
			layers["trace.overhead_frac"] = median(tracedWalls)/median(walls) - 1
		}
		for _, l := range perLayer {
			res.Metrics[l.name] = metric{layers[l.name], l.unit}
		}
		res.traces = traces
		return res, nil
	}

	rss, err := peakRSSMiB()
	if err != nil {
		return nil, err
	}
	res.Wall["setup_s"] = metric{median(setupTimes), "s"}
	res.Wall["p50_s"] = metric{median(walls), "s"}
	res.Wall["rounds_per_s"] = metric{median(rates), "rounds/s"}
	res.Wall["yardstick_setup_s"] = metric{setupCal.median(), "s"}
	res.Wall["yardstick_units_s"] = metric{cal.median(), "s"}
	res.Metrics["setup_s"] = metric{median(setupTimes) * setupCal.scale(), "s"}
	res.Metrics["p50_s"] = metric{median(walls) * cal.scale(), "s"}
	res.Metrics["rounds_per_s"] = metric{median(rates) / cal.scale(), "rounds/s"}
	res.Metrics["peak_rss_mib"] = metric{rss, "MiB"}
	res.Metrics["allocs_per_unit"] = metric{float64(mallocs) / float64(len(walls)), "count"}
	return res, nil
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count); xs is not modified.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// the closest ranks; xs is not modified.
func quantile(xs []float64, q float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// peakRSSMiB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 3 && fields[0] == "VmHWM:" && fields[2] == "kB" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM line in /proc/self/status")
}
