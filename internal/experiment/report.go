package experiment

import (
	"fmt"
	"io"
	"strings"
)

// Table is a printable result with a caption, column headers and rows, the
// shape every paper table and figure reduces to.
type Table struct {
	Caption string
	Columns []string
	Rows    [][]string
	// Notes carries scale/substitution remarks printed under the table.
	Notes []string
}

// AddRow appends a row of already-formatted cells.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// WriteTo renders the table as aligned text.
func (t *Table) WriteTo(w io.Writer) (int64, error) {
	var b strings.Builder
	b.WriteString(t.Caption)
	b.WriteString("\n")
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(cell)
			if i < len(widths) {
				b.WriteString(strings.Repeat(" ", widths[i]-len(cell)))
			}
		}
		b.WriteString("\n")
	}
	writeRow(t.Columns)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteString("\n")
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, note := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", note)
	}
	n, err := io.WriteString(w, b.String())
	return int64(n), err
}

// String renders the table.
func (t *Table) String() string {
	var b strings.Builder
	if _, err := t.WriteTo(&b); err != nil {
		panic(err) // strings.Builder cannot fail
	}
	return b.String()
}

func fms(ms float64) string  { return fmt.Sprintf("%.3f", ms) }
func fus(ms float64) string  { return fmt.Sprintf("%.1f", 1000*ms) }
func fint(v int) string      { return fmt.Sprintf("%d", v) }
func f64(v int64) string     { return fmt.Sprintf("%d", v) }
func fpct(v float64) string  { return fmt.Sprintf("%.1f%%", 100*v) }
func ffrac(v float64) string { return fmt.Sprintf("%.3f", v) }
