// Package report renders experiment results as aligned text tables (the
// terminal counterpart of the paper's figures).
package report

import (
	"fmt"
	"io"
	"strings"
)

// Table is a simple rectangular result table.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// Add appends a row; values are stringified with %v (floats pre-formatted
// by the caller via F).
func (t *Table) Add(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// F formats a float at 3 decimal places, the paper's table precision.
func F(v float64) string { return fmt.Sprintf("%.3f", v) }

// Render writes the table with aligned columns.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteString("\n")
	}
	writeRow(t.Headers)
	sep := make([]string, len(t.Headers))
	for i, w := range widths {
		sep[i] = strings.Repeat("-", w)
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	_, err := io.WriteString(w, b.String())
	return err
}
