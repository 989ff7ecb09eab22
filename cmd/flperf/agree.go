package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
)

// benchDef is the part of BENCHMARK.json that -agree reads.
type benchDef struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runAgree compares two result sets of the same code, each a file of
// -json records from untraced runs, and prints one verdict per (workload,
// metric) pair:
//
//	agree       the medians differ by no more than the metric's bound
//	exceeds     they differ by more, and both sets are steadier than it
//	unresolved  they differ by more, but a set's own quartile spread is
//	            wider than the bound, or a side has no runs
//
// The end-to-end metrics use BENCHMARK.json's bounds. The exact metrics
// (rounds, messages, cost, fail_frac) must read the same in every run of
// either set on a seed both sets ran. It returns an error when any pair
// exceeds.
func runAgree(benchPath, aPath, bPath string, w io.Writer) error {
	raw, err := os.ReadFile(benchPath)
	if err != nil {
		return err
	}
	var def benchDef
	if err := json.Unmarshal(raw, &def); err != nil {
		return fmt.Errorf("%s: %w", benchPath, err)
	}
	a, err := readRecords(aPath)
	if err != nil {
		return err
	}
	b, err := readRecords(bPath)
	if err != nil {
		return err
	}
	var names []string
	for name := range a {
		names = append(names, name)
	}
	for name := range b {
		if _, ok := a[name]; !ok {
			names = append(names, name)
		}
	}
	slices.Sort(names)

	exceeded := 0
	fmt.Fprintf(w, "%-14s %-16s %-10s %-34s %-34s %s\n", "workload", "metric", "verdict", "A median [q1, q3] (n)", "B median [q1, q3] (n)", "change")
	for _, name := range names {
		ra, rb := a[name], b[name]
		for _, m := range def.EndToEnd {
			va, vb := metricValues(ra, m.Name, false), metricValues(rb, m.Name, false)
			v := verdict(m.Bound, va, vb)
			if v == "exceeds" {
				exceeded++
			}
			fmt.Fprintf(w, "%-14s %-16s %-10s %-34s %-34s %s\n", name, m.Name, v, summary(va), summary(vb), change(va, vb))
		}
		for _, k := range exactNames(ra, rb) {
			va, vb := metricValues(ra, k, true), metricValues(rb, k, true)
			v := exactVerdict(ra, rb, k)
			if v == "exceeds" {
				exceeded++
			}
			fmt.Fprintf(w, "%-14s %-16s %-10s %-34s %-34s %s\n", name, k, v, summary(va), summary(vb), change(va, vb))
		}
	}
	if exceeded > 0 {
		return fmt.Errorf("%d (workload, metric) pairs exceed their bound", exceeded)
	}
	return nil
}

// readRecords loads the untraced result records of a -json file, by
// workload.
func readRecords(path string) (map[string][]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[string][]result)
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if r.Workload == "" {
			return nil, fmt.Errorf("%s:%d: not a flperf result record", path, line)
		}
		if !r.Trace {
			out[r.Workload] = append(out[r.Workload], r)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return out, nil
}

// metricValues collects one metric from every record that has it.
func metricValues(rs []result, name string, exact bool) []float64 {
	var vs []float64
	for _, r := range rs {
		m := r.Metrics
		if exact {
			m = r.Exact
		}
		if v, ok := m[name]; ok {
			vs = append(vs, v.Value)
		}
	}
	return vs
}

// exactNames lists the exact metrics either set reports.
func exactNames(a, b []result) []string {
	seen := make(map[string]bool)
	for _, rs := range [][]result{a, b} {
		for _, r := range rs {
			for k := range r.Exact {
				seen[k] = true
			}
		}
	}
	return sortedKeys(seen)
}

// exactVerdict judges one exact metric: every run of either set on a seed
// both sets ran must read the same value.
func exactVerdict(a, b []result, name string) string {
	bySeed := func(rs []result) map[int64][]float64 {
		out := make(map[int64][]float64)
		for _, r := range rs {
			if v, ok := r.Exact[name]; ok {
				out[r.Seed] = append(out[r.Seed], v.Value)
			}
		}
		return out
	}
	sa, sb := bySeed(a), bySeed(b)
	common := 0
	for seed, va := range sa {
		vb, ok := sb[seed]
		if !ok {
			continue
		}
		common++
		all := append(slices.Clone(va), vb...)
		if slices.Min(all) != slices.Max(all) {
			return "exceeds"
		}
	}
	if common == 0 {
		return "unresolved"
	}
	return "agree"
}

// verdict judges one bounded metric; see runAgree.
func verdict(bound float64, a, b []float64) string {
	if len(a) == 0 || len(b) == 0 {
		return "unresolved"
	}
	ma, mb := median(a), median(b)
	if math.Abs(mb-ma) <= bound*math.Abs(ma) {
		return "agree"
	}
	if relSpread(a) > bound || relSpread(b) > bound {
		return "unresolved"
	}
	return "exceeds"
}

// relSpread is the distance between the first and third quartiles as a
// share of the median.
func relSpread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(median(xs))
}

// quartiles returns the first and third quartiles by the method Python's
// statistics.quantiles uses by default ("exclusive").
func quartiles(xs []float64) (float64, float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	ld := len(s)
	if ld < 2 {
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := ld + 1
		j := min(max(i*m/4, 1), ld-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

func summary(xs []float64) string {
	if len(xs) == 0 {
		return "-"
	}
	q1, q3 := quartiles(xs)
	return fmt.Sprintf("%.5g [%.5g, %.5g] (%d)", median(xs), q1, q3, len(xs))
}

func change(a, b []float64) string {
	if len(a) == 0 || len(b) == 0 || median(a) == 0 {
		return "-"
	}
	return fmt.Sprintf("%+.2f%%", 100*(median(b)/median(a)-1))
}

// sortedKeys returns m's keys in ascending order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
