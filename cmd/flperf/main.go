package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

func main() {
	if err := realMain(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "flperf:", err)
		os.Exit(1)
	}
}

func realMain(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("flperf", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run (see BENCHMARK.json)")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are built from")
	secs := fs.Float64("seconds", 15, "how long to measure, in seconds of timed units")
	trace := fs.Int("trace", 0, "1 runs the traced run and reports the per-layer metrics; 0 reports the end-to-end metrics")
	spans := fs.String("spans", "", "traced run: write the spans to this file as JSON lines")
	jsonOut := fs.String("json", "", "append the full result record to this file as one JSON line")
	agree := fs.Bool("agree", false, "compare two result files (flperf -agree A.json B.json) against BENCHMARK.json's bounds")
	bench := fs.String("bench", "BENCHMARK.json", "the benchmark definition -agree reads its bounds from")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *agree {
		if fs.NArg() != 2 {
			return fmt.Errorf("-agree needs two result files")
		}
		return runAgree(*bench, fs.Arg(0), fs.Arg(1), stdout)
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", *trace)
	}
	if *secs <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	w, err := findWorkload(*name)
	if err != nil {
		return err
	}
	res, err := run(w, *seed, time.Duration(*secs*float64(time.Second)), *trace == 1)
	if err != nil {
		return err
	}
	if *spans != "" {
		if err := writeSpans(*spans, res.traces); err != nil {
			return err
		}
	}
	if *jsonOut != "" {
		if err := appendRecord(*jsonOut, res); err != nil {
			return err
		}
	}
	return report(stdout, res)
}

// report prints the run's context and every metric by name with its unit,
// the timings in wall-clock seconds as wall.*, then, as the last line, the
// result object: correct, attempted, failed and metrics.
func report(w io.Writer, res *result) error {
	fmt.Fprintf(w, "flperf workload=%s seed=%d trace=%v nproc=%d gomaxprocs=%d go=%s setup_builds=%d units=%d traced_units=%d attempted=%d failed=%d\n",
		res.Workload, res.Seed, res.Trace, res.Nproc, res.Gomaxprocs, res.GoVersion,
		res.SetupBuilds, res.Units, res.TracedUnits, res.Attempted, res.Failed)
	for _, m := range []map[string]metric{res.Metrics, res.Exact} {
		for _, k := range sortedKeys(m) {
			fmt.Fprintf(w, "  %-32s %.6g %s\n", k, m[k].Value, m[k].Unit)
		}
	}
	for _, k := range sortedKeys(res.Wall) {
		fmt.Fprintf(w, "  %-32s %.6g %s\n", "wall."+k, res.Wall[k].Value, res.Wall[k].Unit)
	}
	if res.P90 != nil {
		fmt.Fprintf(w, "  %-32s %.6g %s\n", "p90_s", res.P90.Value, res.P90.Unit)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.Metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// appendRecord appends res to path as one JSON line, so repeated runs
// build up a result set for -agree.
func appendRecord(path string, res *result) error {
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("result record: %w", err)
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return fmt.Errorf("result record: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("result record: %w", err)
	}
	return nil
}
