package analysis

import (
	"fmt"
	"io"
	"path/filepath"
	"strings"
)

// Finding is one diagnostic with its path made module-relative, the unit
// WriteText prints.
type Finding struct {
	Analyzer string
	File     string // module-root-relative, slash-separated
	Line     int
	Column   int
	Message  string
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
