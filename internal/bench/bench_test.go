package bench

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// fmtSscan parses a float cell.
func fmtSscan(s string, out *float64) (int, error) { return fmt.Sscan(s, out) }

func TestTableAddAndRender(t *testing.T) {
	tbl := Table{ID: "T0", Title: "demo", Note: "a note", Columns: []string{"a", "bb"}}
	tbl.Add("1", "2")
	tbl.Add("333", "4")
	var buf bytes.Buffer
	if err := tbl.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"T0 — demo", "a note", "333  4"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q in:\n%s", want, out)
		}
	}
}

func TestTableAddPanicsOnWidthMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic on cell count mismatch")
		}
	}()
	tbl := Table{ID: "T0", Columns: []string{"a"}}
	tbl.Add("1", "2")
}

func TestTableCSV(t *testing.T) {
	tbl := Table{ID: "T0", Columns: []string{"x", "y"}}
	tbl.Add("1", `has"quote`)
	tbl.Add("2", "has,comma")
	var buf bytes.Buffer
	if err := tbl.CSV(&buf); err != nil {
		t.Fatal(err)
	}
	want := "x,y\n1,\"has\"\"quote\"\n2,\"has,comma\"\n"
	if buf.String() != want {
		t.Fatalf("CSV = %q, want %q", buf.String(), want)
	}
}

func TestExperimentByID(t *testing.T) {
	e, err := ExperimentByID("E1")
	if err != nil || e.ID != "E1" {
		t.Fatalf("ExperimentByID(E1) = %+v, %v", e, err)
	}
	if _, err := ExperimentByID("E99"); err == nil {
		t.Fatal("unknown id should fail")
	}
}

func TestExperimentsHaveDistinctIDsAndClaims(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range Experiments() {
		if seen[e.ID] {
			t.Fatalf("duplicate experiment id %s", e.ID)
		}
		seen[e.ID] = true
		if e.Claim == "" || e.Name == "" || e.Run == nil {
			t.Fatalf("experiment %s incomplete", e.ID)
		}
		if e.Kind != "table" && e.Kind != "figure" {
			t.Fatalf("experiment %s has kind %q", e.ID, e.Kind)
		}
	}
}

// update rewrites the goldens: go test ./internal/bench -run TestAllExperimentsQuick -update
var update = flag.Bool("update", false, "rewrite results/*.csv from this run")

// goldenDir holds the committed tables, one CSV per table, as
// `make results` writes them.
const goldenDir = "../../results"

// TestAllExperimentsQuick regenerates every table and figure at the
// `make results` parameters (seed 1, default runs) and compares each CSV
// byte for byte with its golden in results/. Every cell is a deterministic
// function of the code and the seed, so a changed cell is a changed
// reproduction result: a change that moves one regenerates the goldens with
// -update and names the column and the reason in CHANGES.md. The whole
// suite runs in a few seconds, so the test runs it at full size; it keeps
// the name it had when it ran a shrunken copy.
func TestAllExperimentsQuick(t *testing.T) {
	var mu sync.Mutex
	produced := map[string]bool{} // golden file names
	ran := 0                      // experiments whose tables all matched
	t.Cleanup(func() {
		// A -run filter or a failure leaves tables unproduced.
		if ran < len(Experiments()) {
			return
		}
		stale, err := filepath.Glob(filepath.Join(goldenDir, "*.csv"))
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range stale {
			if !produced[filepath.Base(name)] {
				t.Errorf("%s is no experiment's table", name)
			}
		}
	})
	for _, e := range Experiments() {
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			tables, err := e.Run(Params{Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			for _, tbl := range tables {
				name := strings.ToLower(tbl.ID) + ".csv"
				mu.Lock()
				produced[name] = true
				mu.Unlock()
				var got bytes.Buffer
				if err := tbl.CSV(&got); err != nil {
					t.Fatal(err)
				}
				path := filepath.Join(goldenDir, name)
				if *update {
					if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
						t.Fatal(err)
					}
					continue
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("%v (run with -update to write it)", err)
				}
				gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
				for i := range min(len(gotLines), len(wantLines)) {
					if gotLines[i] != wantLines[i] {
						t.Fatalf("%s line %d: this run has %q, the golden %q (-update rewrites it)",
							path, i+1, gotLines[i], wantLines[i])
					}
				}
				if len(gotLines) != len(wantLines) {
					t.Fatalf("%s: this run has %d lines, the golden %d (-update rewrites it)",
						path, len(gotLines), len(wantLines))
				}
			}
			mu.Lock()
			ran++
			mu.Unlock()
		})
	}
}

// TestExactAuditAllPass asserts the theorem-shaped invariant end to end:
// no FAIL verdict in the exact-ratio audit.
func TestExactAuditAllPass(t *testing.T) {
	t.Parallel()
	tables, err := ExactAudit(Params{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, tbl := range tables {
		for _, row := range tbl.Rows {
			if row[len(row)-1] != "PASS" {
				t.Fatalf("audit row failed: %v", row)
			}
		}
	}
}

// TestConvergenceReachesEveryone asserts every K-series of Figure 3 ends
// at 100% connected, and that the cumulative series is non-decreasing.
func TestConvergenceReachesEveryone(t *testing.T) {
	t.Parallel()
	tables, err := ConvergenceFigure(Params{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	rows := tables[0].Rows
	var lastK string
	prev := -1.0
	for _, row := range rows {
		if row[0] != lastK {
			lastK, prev = row[0], -1
		}
		var pct float64
		if _, err := fmtSscan(row[4], &pct); err != nil {
			t.Fatal(err)
		}
		if pct < prev {
			t.Fatalf("connected%% decreased within K=%s: %v", row[0], row)
		}
		prev = pct
	}
	// The final row of each K must be 100%.
	for i, row := range rows {
		if i+1 == len(rows) || rows[i+1][0] != row[0] {
			if row[4] != "100.0" {
				t.Fatalf("K=%s ends at %s%%, want 100", row[0], row[4])
			}
		}
	}
}

// TestFaultSensitivityAnchors checks T7's limiting rows: 0%% loss matches
// the fault-free run and 100%% loss reports a fully-cleanup run.
func TestFaultSensitivityAnchors(t *testing.T) {
	t.Parallel()
	tables, err := FaultSensitivity(Params{Seed: 3, Runs: 2})
	if err != nil {
		t.Fatal(err)
	}
	rows := tables[0].Rows
	first, last := rows[0], rows[len(rows)-1]
	if first[0] != "0%" || first[3] != "0" {
		t.Fatalf("first row should be lossless: %v", first)
	}
	if last[0] != "100%" || last[2] != "100.0" {
		t.Fatalf("last row should be all-cleanup: %v", last)
	}
}

// TestTradeoffDirection checks on the quick table that the best measured
// ratio across the K sweep is achieved at K > 1 or ties K=1 — i.e. spending
// rounds does not hurt.
func TestTradeoffDirection(t *testing.T) {
	t.Parallel()
	tables, err := TradeoffK(Params{Seed: 7, Runs: 3})
	if err != nil {
		t.Fatal(err)
	}
	rows := tables[0].Rows
	first := rows[0]
	last := rows[len(rows)-1]
	var firstRatio, lastRatio float64
	if _, err := fmtSscan(first[6], &firstRatio); err != nil {
		t.Fatal(err)
	}
	if _, err := fmtSscan(last[6], &lastRatio); err != nil {
		t.Fatal(err)
	}
	if lastRatio > firstRatio*1.3 {
		t.Fatalf("ratio degraded with K: %.3f (K=1) -> %.3f (K max)", firstRatio, lastRatio)
	}
}

// TestParseFaultSpec pins the -faults mini-syntax: every token kind round
// trips into the right congest.Faults field, and malformed tokens are
// rejected with an error naming the offending piece.
func TestParseFaultSpec(t *testing.T) {
	f, err := ParseFaultSpec("drop=0.2@30, dup=0.1, delay=0.05@3, crash=3@5, crash=7@9, recover=3@20, burst=10-12, burst=40-41")
	if err != nil {
		t.Fatal(err)
	}
	if f.DropProb != 0.2 || f.DropUntilRound != 30 {
		t.Fatalf("drop parsed as %v@%d", f.DropProb, f.DropUntilRound)
	}
	if f.DupProb != 0.1 {
		t.Fatalf("dup parsed as %v", f.DupProb)
	}
	if f.DelayProb != 0.05 || f.MaxDelay != 3 {
		t.Fatalf("delay parsed as %v@%d", f.DelayProb, f.MaxDelay)
	}
	if f.CrashAtRound[3] != 5 || f.CrashAtRound[7] != 9 || f.RecoverAtRound[3] != 20 {
		t.Fatalf("crash/recover parsed as %v / %v", f.CrashAtRound, f.RecoverAtRound)
	}
	if len(f.Bursts) != 2 || f.Bursts[0].FromRound != 10 || f.Bursts[0].ToRound != 12 {
		t.Fatalf("bursts parsed as %v", f.Bursts)
	}
	if empty, err := ParseFaultSpec("  "); err != nil || empty.DropProb != 0 {
		t.Fatalf("blank spec: %v %v", empty, err)
	}
	for _, bad := range []string{
		"drop", "drop=", "drop=x", "drop=0.2@x", "delay=0.1", "delay=p@2",
		"crash=3", "crash=a@5", "recover=3@b", "burst=5", "burst=a-b", "warp=0.5",
	} {
		if _, err := ParseFaultSpec(bad); err == nil {
			t.Errorf("spec %q accepted", bad)
		}
	}
}

// TestChaosOverheadHonorsFaultSpec: a caller-supplied schedule replaces the
// default matrix (baseline row plus the spec, each with and without the
// reliable shim).
func TestChaosOverheadHonorsFaultSpec(t *testing.T) {
	t.Parallel()
	tables, err := ChaosOverhead(Params{Seed: 7, FaultSpec: "drop=0.3,crash=2@9"})
	if err != nil {
		t.Fatal(err)
	}
	rows := tables[0].Rows
	if len(rows) != 3 {
		t.Fatalf("got %d rows, want baseline + spec x {off,on}", len(rows))
	}
	if rows[1][0] != "drop=0.3,crash=2@9" || rows[2][1] != "budget=2" {
		t.Fatalf("unexpected schedule rows: %v", rows)
	}
	for _, r := range rows {
		if r[len(r)-1] != "ok" {
			t.Fatalf("uncertified row: %v", r)
		}
	}
	if _, err := ChaosOverhead(Params{Seed: 7, FaultSpec: "warp=1"}); err == nil {
		t.Fatal("bad spec accepted")
	}
}
