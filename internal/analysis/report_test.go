package analysis

import (
	"bytes"
	"encoding/json"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

func sampleFindings() []Finding {
	return []Finding{
		{Analyzer: "hotmap", File: "internal/core/nodes.go", Line: 75, Column: 2, Message: "map in hot path"},
		{Analyzer: "dettaint", File: "internal/congest/shard.go", Line: 12, Column: 9, Message: "time flows into wire"},
	}
}

func TestFindingsRelativizePaths(t *testing.T) {
	root := string(filepath.Separator) + filepath.Join("mod", "root")
	diags := []Diagnostic{
		{Pos: token.Position{Filename: filepath.Join(root, "internal", "core", "x.go"), Line: 3, Column: 1}, Analyzer: "dettaint", Message: "m"},
		{Pos: token.Position{Filename: filepath.Join(string(filepath.Separator), "elsewhere", "y.go"), Line: 1, Column: 1}, Analyzer: "dettaint", Message: "m"},
	}
	fs := Findings(diags, root)
	if fs[0].File != "internal/core/x.go" {
		t.Errorf("in-module path not relativized: %q", fs[0].File)
	}
	if !strings.HasSuffix(fs[1].File, "elsewhere/y.go") || strings.HasPrefix(fs[1].File, "..") {
		t.Errorf("out-of-module path mangled: %q", fs[1].File)
	}
}

func TestWriteJSONEmptyIsArray(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteJSON(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimSpace(buf.String()); got != "[]" {
		t.Errorf("empty findings encode as %q, want []", got)
	}
}

// TestWriteSARIFShape validates the 2.1.0 fields GitHub code scanning
// requires, decoding through a generic map so struct tags are actually
// exercised.
func TestWriteSARIFShape(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteSARIF(&buf, sampleFindings(), All()); err != nil {
		t.Fatal(err)
	}
	var log map[string]any
	if err := json.Unmarshal(buf.Bytes(), &log); err != nil {
		t.Fatalf("SARIF output is not valid JSON: %v", err)
	}
	if v := log["version"]; v != "2.1.0" {
		t.Errorf("version = %v, want 2.1.0", v)
	}
	if s, _ := log["$schema"].(string); !strings.Contains(s, "sarif-schema-2.1.0") {
		t.Errorf("$schema = %q, want the 2.1.0 schema URL", s)
	}
	runs, _ := log["runs"].([]any)
	if len(runs) != 1 {
		t.Fatalf("runs has %d entries, want 1", len(runs))
	}
	run := runs[0].(map[string]any)
	driver := run["tool"].(map[string]any)["driver"].(map[string]any)
	if driver["name"] != "flvet" {
		t.Errorf("driver name = %v, want flvet", driver["name"])
	}
	rules, _ := driver["rules"].([]any)
	if len(rules) != len(All()) {
		t.Errorf("driver lists %d rules, want %d (one per analyzer)", len(rules), len(All()))
	}
	results, _ := run["results"].([]any)
	if len(results) != 2 {
		t.Fatalf("results has %d entries, want 2", len(results))
	}
	res := results[0].(map[string]any)
	if res["ruleId"] != "hotmap" || res["level"] != "error" {
		t.Errorf("result ruleId/level = %v/%v", res["ruleId"], res["level"])
	}
	idx := int(res["ruleIndex"].(float64))
	if rules[idx].(map[string]any)["id"] != "hotmap" {
		t.Errorf("ruleIndex %d does not point at the hotmap rule", idx)
	}
	if msg := res["message"].(map[string]any); msg["text"] != "map in hot path" {
		t.Errorf("message.text = %v", msg["text"])
	}
	loc := res["locations"].([]any)[0].(map[string]any)["physicalLocation"].(map[string]any)
	art := loc["artifactLocation"].(map[string]any)
	if art["uri"] != "internal/core/nodes.go" || art["uriBaseId"] != "%SRCROOT%" {
		t.Errorf("artifactLocation = %v", art)
	}
	region := loc["region"].(map[string]any)
	if region["startLine"].(float64) != 75 || region["startColumn"].(float64) != 2 {
		t.Errorf("region = %v", region)
	}
}

// TestWriteSARIFEmptyResults pins that a clean run still emits a results
// array (GitHub rejects a missing one).
func TestWriteSARIFEmptyResults(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteSARIF(&buf, nil, All()); err != nil {
		t.Fatal(err)
	}
	var log struct {
		Runs []struct {
			Results json.RawMessage `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(buf.Bytes(), &log); err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimSpace(string(log.Runs[0].Results)); got != "[]" {
		t.Errorf("clean run encodes results as %s, want []", got)
	}
}

func TestBaselineRoundTrip(t *testing.T) {
	findings := sampleFindings()
	var buf bytes.Buffer
	if err := WriteBaseline(&buf, findings); err != nil {
		t.Fatal(err)
	}
	b, err := ParseBaseline(strings.NewReader(buf.String() + "\n# trailing comment\n\n"))
	if err != nil {
		t.Fatal(err)
	}
	fresh, stale := b.Filter(findings)
	if len(fresh) != 0 || len(stale) != 0 {
		t.Errorf("round trip: fresh=%d stale=%d, want 0/0", len(fresh), len(stale))
	}

	// A new finding passes through; a paid-off entry turns stale.
	extra := Finding{Analyzer: "hotmap", File: "a.go", Line: 1, Column: 1, Message: "new"}
	fresh, stale = b.Filter(append(findings[:1:1], extra))
	if len(fresh) != 1 || fresh[0].Analyzer != "hotmap" {
		t.Errorf("fresh = %+v, want just the hotmap finding", fresh)
	}
	if len(stale) != 1 || !strings.HasPrefix(stale[0], "dettaint\t") {
		t.Errorf("stale = %q, want the unmatched dettaint entry", stale)
	}
}

func TestParseBaselineRejectsMalformed(t *testing.T) {
	_, err := ParseBaseline(strings.NewReader("# ok\njust some text without tabs\n"))
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Errorf("malformed baseline: err = %v, want a line-2 complaint", err)
	}
}

// TestProblemMatcherParsesTextOutput keeps the CI problem matcher and
// WriteText in lockstep: the committed regexp must capture file, line,
// column, message, and analyzer from the exact lines the driver prints.
func TestProblemMatcherParsesTextOutput(t *testing.T) {
	root, err := ModuleRoot()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(root, ".github", "flvet-matcher.json"))
	if err != nil {
		t.Fatal(err)
	}
	var matcher struct {
		ProblemMatcher []struct {
			Pattern []struct {
				Regexp string `json:"regexp"`
				File   int    `json:"file"`
				Line   int    `json:"line"`
				Column int    `json:"column"`
			} `json:"pattern"`
		} `json:"problemMatcher"`
	}
	if err := json.Unmarshal(raw, &matcher); err != nil {
		t.Fatal(err)
	}
	pat := matcher.ProblemMatcher[0].Pattern[0]
	re, err := regexp.Compile(pat.Regexp)
	if err != nil {
		t.Fatalf("matcher regexp does not compile: %v", err)
	}
	var buf bytes.Buffer
	if err := WriteText(&buf, sampleFindings()); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		m := re.FindStringSubmatch(line)
		if m == nil {
			t.Errorf("matcher regexp does not match output line %q", line)
			continue
		}
		if m[pat.File] == "" || m[pat.Line] == "" || m[pat.Column] == "" {
			t.Errorf("matcher captured empty file/line/column from %q", line)
		}
	}
}
