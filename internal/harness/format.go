package harness

import (
	"fmt"
	"strings"
	"unicode/utf8"
)

// Table renders aligned text tables for the experiment driver's output.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table { return &Table{header: header} }

// AddRow appends a row; cells are formatted with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.3f", v)
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.rows = append(t.rows, row)
}

// String renders the table with columns padded to their widest cell, in
// runes, so a cell such as "1.00 ± 0.10" aligns.
func (t *Table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = utf8.RuneCountInString(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if n := utf8.RuneCountInString(c); i < len(widths) && n > widths[i] {
				widths[i] = n
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			b.WriteString(strings.Repeat(" ", widths[i]-utf8.RuneCountInString(c)))
		}
		b.WriteByte('\n')
	}
	writeRow(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}

// CSV renders the table as comma-separated values.
func (t *Table) CSV() string {
	var b strings.Builder
	b.WriteString(strings.Join(t.header, ","))
	b.WriteByte('\n')
	for _, r := range t.rows {
		b.WriteString(strings.Join(r, ","))
		b.WriteByte('\n')
	}
	return b.String()
}
