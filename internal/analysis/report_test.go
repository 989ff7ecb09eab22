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
		{Analyzer: "detrand", File: "internal/congest/shard.go", Line: 12, Column: 9, Message: "clock read in a protocol package"},
	}
}

func TestFindingsRelativizePaths(t *testing.T) {
	root := string(filepath.Separator) + filepath.Join("mod", "root")
	diags := []Diagnostic{
		{Pos: token.Position{Filename: filepath.Join(root, "internal", "core", "x.go"), Line: 3, Column: 1}, Analyzer: "detrand", Message: "m"},
		{Pos: token.Position{Filename: filepath.Join(string(filepath.Separator), "elsewhere", "y.go"), Line: 1, Column: 1}, Analyzer: "detrand", Message: "m"},
	}
	fs := Findings(diags, root)
	if fs[0].File != "internal/core/x.go" {
		t.Errorf("in-module path not relativized: %q", fs[0].File)
	}
	if !strings.HasSuffix(fs[1].File, "elsewhere/y.go") || strings.HasPrefix(fs[1].File, "..") {
		t.Errorf("out-of-module path mangled: %q", fs[1].File)
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
