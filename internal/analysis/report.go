package analysis

import (
	"encoding/json"
	"fmt"
	"io"
	"path/filepath"
	"strings"
)

// Finding is one diagnostic with its path made module-relative — the
// machine-readable unit shared by the text, JSON, and SARIF emitters.
type Finding struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"` // module-root-relative, slash-separated
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Message  string `json:"message"`
}

// Findings converts diagnostics to findings, relativizing paths against
// the module root so output is stable across checkouts.
func Findings(diags []Diagnostic, root string) []Finding {
	out := make([]Finding, 0, len(diags))
	for _, d := range diags {
		file := d.Pos.Filename
		if rel, err := filepath.Rel(root, file); err == nil && !strings.HasPrefix(rel, "..") {
			file = rel
		}
		out = append(out, Finding{
			Analyzer: d.Analyzer,
			File:     filepath.ToSlash(file),
			Line:     d.Pos.Line,
			Column:   d.Pos.Column,
			Message:  d.Message,
		})
	}
	return out
}

// WriteText emits the classic vet-style lines; the CI problem matcher
// (.github/flvet-matcher.json) parses exactly this shape.
func WriteText(w io.Writer, findings []Finding) error {
	for _, f := range findings {
		if _, err := fmt.Fprintf(w, "%s:%d:%d: %s [%s]\n", f.File, f.Line, f.Column, f.Message, f.Analyzer); err != nil {
			return err
		}
	}
	return nil
}

// WriteJSON emits the findings as a JSON array (empty array, not null,
// when clean — consumers should not need a null check).
func WriteJSON(w io.Writer, findings []Finding) error {
	if findings == nil {
		findings = []Finding{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(findings)
}

// sarifLog mirrors the subset of SARIF 2.1.0 that GitHub code scanning
// consumes.
type sarifLog struct {
	Version string     `json:"version"`
	Schema  string     `json:"$schema"`
	Runs    []sarifRun `json:"runs"`
}

type sarifRun struct {
	Tool    sarifTool     `json:"tool"`
	Results []sarifResult `json:"results"`
}

type sarifTool struct {
	Driver sarifDriver `json:"driver"`
}

type sarifDriver struct {
	Name           string      `json:"name"`
	InformationURI string      `json:"informationUri,omitempty"`
	Rules          []sarifRule `json:"rules"`
}

type sarifRule struct {
	ID               string       `json:"id"`
	ShortDescription sarifMessage `json:"shortDescription"`
}

type sarifMessage struct {
	Text string `json:"text"`
}

type sarifResult struct {
	RuleID    string          `json:"ruleId"`
	RuleIndex int             `json:"ruleIndex"`
	Level     string          `json:"level"`
	Message   sarifMessage    `json:"message"`
	Locations []sarifLocation `json:"locations"`
}

type sarifLocation struct {
	PhysicalLocation sarifPhysicalLocation `json:"physicalLocation"`
}

type sarifPhysicalLocation struct {
	ArtifactLocation sarifArtifactLocation `json:"artifactLocation"`
	Region           sarifRegion           `json:"region"`
}

type sarifArtifactLocation struct {
	URI       string `json:"uri"`
	URIBaseID string `json:"uriBaseId"`
}

type sarifRegion struct {
	StartLine   int `json:"startLine"`
	StartColumn int `json:"startColumn"`
}

// WriteSARIF emits a SARIF 2.1.0 log with one run: the suite as the tool's
// rule table and every finding as an error-level result anchored to a
// %SRCROOT%-relative location, the shape GitHub code scanning ingests.
func WriteSARIF(w io.Writer, findings []Finding, suite []*Analyzer) error {
	ruleIndex := map[string]int{}
	rules := make([]sarifRule, 0, len(suite))
	for i, a := range suite {
		ruleIndex[a.Name] = i
		rules = append(rules, sarifRule{ID: a.Name, ShortDescription: sarifMessage{Text: a.Doc}})
	}
	results := make([]sarifResult, 0, len(findings))
	for _, f := range findings {
		idx, known := ruleIndex[f.Analyzer]
		if !known {
			idx = len(rules)
			ruleIndex[f.Analyzer] = idx
			rules = append(rules, sarifRule{ID: f.Analyzer, ShortDescription: sarifMessage{Text: f.Analyzer}})
		}
		results = append(results, sarifResult{
			RuleID:    f.Analyzer,
			RuleIndex: idx,
			Level:     "error",
			Message:   sarifMessage{Text: f.Message},
			Locations: []sarifLocation{{
				PhysicalLocation: sarifPhysicalLocation{
					ArtifactLocation: sarifArtifactLocation{
						URI:       f.File,
						URIBaseID: "%SRCROOT%",
					},
					Region: sarifRegion{StartLine: f.Line, StartColumn: f.Column},
				},
			}},
		})
	}
	log := sarifLog{
		Version: "2.1.0",
		Schema:  "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json",
		Runs:    []sarifRun{{Tool: sarifTool{Driver: sarifDriver{Name: "flvet", Rules: rules}}, Results: results}},
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(log)
}
