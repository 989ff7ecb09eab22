// Package bench is the experiment harness: it regenerates every table and
// figure of the evaluation (see DESIGN.md section 5 and EXPERIMENTS.md)
// as plain-text tables and CSV series. The target paper publishes
// analytical bounds rather than measurements, so each experiment prints the
// analytical quantity next to the measured one.
package bench

import (
	"fmt"
	"io"
	"strings"
)

// Table is one result artifact: a titled grid of cells. Figures are tables
// too (series in columns), rendered to CSV for plotting.
type Table struct {
	ID      string // "T1".."T13", "F1".."F3"; results/<id>.csv in lower case
	Title   string
	Note    string
	Columns []string
	Rows    [][]string
}

// Add appends a row; the cell count must match the header.
func (t *Table) Add(cells ...string) {
	if len(cells) != len(t.Columns) {
		panic(fmt.Sprintf("bench: row has %d cells, table %s has %d columns", len(cells), t.ID, len(t.Columns)))
	}
	t.Rows = append(t.Rows, cells)
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.Columns))
	for c, col := range t.Columns {
		widths[c] = len(col)
	}
	for _, row := range t.Rows {
		for c, cell := range row {
			if len(cell) > widths[c] {
				widths[c] = len(cell)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", t.ID, t.Title)
	if t.Note != "" {
		fmt.Fprintf(&b, "  %s\n", t.Note)
	}
	writeRow := func(cells []string) {
		for c, cell := range cells {
			if c > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[c], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	rule := make([]string, len(t.Columns))
	for c := range rule {
		rule[c] = strings.Repeat("-", widths[c])
	}
	writeRow(rule)
	for _, row := range t.Rows {
		writeRow(row)
	}
	b.WriteByte('\n')
	_, err := io.WriteString(w, b.String())
	return err
}

// CSV writes the table as comma-separated values with a header row. Cells
// containing commas or quotes are quoted.
func (t *Table) CSV(w io.Writer) error {
	var b strings.Builder
	writeRow := func(cells []string) {
		for c, cell := range cells {
			if c > 0 {
				b.WriteByte(',')
			}
			if strings.ContainsAny(cell, ",\"\n") {
				cell = `"` + strings.ReplaceAll(cell, `"`, `""`) + `"`
			}
			b.WriteString(cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	for _, row := range t.Rows {
		writeRow(row)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// f64 formats a float compactly for table cells.
func f64(x float64) string {
	switch {
	case x >= 1000:
		return fmt.Sprintf("%.0f", x)
	case x >= 10:
		return fmt.Sprintf("%.1f", x)
	default:
		return fmt.Sprintf("%.3f", x)
	}
}

// i64 formats an integer cell.
func i64(x int64) string { return fmt.Sprintf("%d", x) }

// in formats an int cell.
func in(x int) string { return fmt.Sprintf("%d", x) }
