package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunList(t *testing.T) {
	var out, errBuf bytes.Buffer
	if err := run([]string{"-list"}, &out, &errBuf); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"E1", "E5", "E9", "E10", "E11"} {
		if !strings.Contains(out.String(), id+" ") {
			t.Fatalf("list missing %s:\n%s", id, out.String())
		}
	}
}

func TestRunSingleExperimentWithCSV(t *testing.T) {
	dir := t.TempDir()
	var out, errBuf bytes.Buffer
	if err := run([]string{"-exp", "E6", "-out", dir}, &out, &errBuf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "T4 —") {
		t.Fatalf("table header missing:\n%s", out.String())
	}
	csv, err := os.ReadFile(filepath.Join(dir, "t4.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(csv), "workload,") {
		t.Fatalf("csv header wrong: %q", string(csv[:40]))
	}
}

func TestRunMultipleExperiments(t *testing.T) {
	var out, errBuf bytes.Buffer
	if err := run([]string{"-exp", "E6, E10"}, &out, &errBuf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "== E6:") || !strings.Contains(out.String(), "== E10:") {
		t.Fatalf("missing experiments:\n%s", out.String())
	}
}

func TestRunJSONReport(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "report.json")
	var out, errBuf bytes.Buffer
	if err := run([]string{"-exp", "E6", "-json", path, "-note", "unit test"}, &out, &errBuf); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var report struct {
		Schema     string `json:"schema"`
		GoMaxProcs int    `json:"gomaxprocs"`
		Note       string `json:"note"`
		Tables     []struct {
			Experiment string     `json:"experiment"`
			ID         string     `json:"id"`
			Columns    []string   `json:"columns"`
			Rows       [][]string `json:"rows"`
		} `json:"tables"`
	}
	if err := json.Unmarshal(raw, &report); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	if report.Schema != "dfl-bench/1" || report.GoMaxProcs < 1 || report.Note != "unit test" {
		t.Fatalf("bad report metadata: %+v", report)
	}
	if len(report.Tables) == 0 || report.Tables[0].Experiment != "E6" {
		t.Fatalf("bad report tables: %+v", report.Tables)
	}
	tab := report.Tables[0]
	if len(tab.Rows) == 0 || len(tab.Rows[0]) != len(tab.Columns) {
		t.Fatalf("ragged table in report: %+v", tab)
	}
}

func TestRunProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	var out, errBuf bytes.Buffer
	if err := run([]string{"-exp", "E6", "-cpuprofile", cpu, "-memprofile", mem}, &out, &errBuf); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, mem} {
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile not written: %v", err)
		}
		if fi.Size() == 0 {
			t.Fatalf("profile %s is empty", p)
		}
	}
	if errBuf.Len() != 0 {
		t.Fatalf("profile writing complained: %s", errBuf.String())
	}
}

func TestRunErrors(t *testing.T) {
	var out, errBuf bytes.Buffer
	if err := run([]string{"-exp", "E99"}, &out, &errBuf); err == nil {
		t.Fatal("unknown experiment should fail")
	}
	if err := run([]string{"-nope"}, &out, &errBuf); err == nil {
		t.Fatal("bad flag should fail")
	}
}

func TestRunFaultSpec(t *testing.T) {
	var out, errBuf bytes.Buffer
	if err := run([]string{"-exp", "E14", "-faults", "drop=0.25,crash=2@7"}, &out, &errBuf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "drop=0.25,crash=2@7") {
		t.Fatalf("chaos table does not show the schedule:\n%s", out.String())
	}
	if err := run([]string{"-exp", "E14", "-faults", "warp=1"}, &out, &errBuf); err == nil {
		t.Fatal("malformed -faults should fail before running experiments")
	}
}
