package bench

import (
	"fmt"
	"strings"

	"bastion/internal/obs/perf"
)

// Table is one experiment's result, defined once: its report section, its
// perf-artifact metrics and its CLI output all render from this value.
type Table struct {
	// Heading titles the section; Note is an optional paragraph under it.
	Heading string
	Note    string
	// Header names the columns. A table without a header renders its rows
	// as a bullet list, each row's cells run together.
	Header []string
	Rows   []Row
}

// Row is one table row: its cells, plus metric-only values the section
// never shows.
type Row struct {
	Cells  []Cell
	Hidden []Value
}

// Cell renders Format over its values' display arguments. Every verb in
// Format is explicit (%d, %s, %.2f, never %v), so the rendered bytes are a
// stated contract.
type Cell struct {
	Format string
	Values []Value
}

// Value is one cell argument. A named value is also a perf metric: Name is
// its full artifact name, Num its value and Dir its gating direction. An
// unnamed value is display-only (a row label, a verdict mark, a derived
// ratio).
type Value struct {
	Name string
	Num  float64
	Dir  perf.Direction
	// Arg is what the cell's format verb receives.
	Arg any
}

// cell builds a cell from a format with one explicit verb per value.
func cell(format string, vs ...Value) Cell { return Cell{Format: format, Values: vs} }

// text is a display-only string cell.
func text(s string) Cell { return cell("%s", show(s)) }

// show is a display-only value.
func show(arg any) Value { return Value{Arg: arg} }

// num is a float metric, shown as itself.
func num(name string, v float64, dir perf.Direction) Value {
	return Value{Name: name, Num: v, Dir: dir, Arg: v}
}

// count is an integer metric, shown with %d.
func count[T int | uint64](name string, n T, dir perf.Direction) Value {
	return Value{Name: name, Num: float64(n), Dir: dir, Arg: n}
}

// bit is a verdict metric, gated exactly as 0/1 and shown as no or yes.
func bit(name string, v bool, no, yes string) Value {
	if v {
		return Value{Name: name, Num: 1, Dir: perf.Exact, Arg: yes}
	}
	return Value{Name: name, Num: 0, Dir: perf.Exact, Arg: no}
}

// render formats the cell.
func (c Cell) render() string {
	args := make([]any, len(c.Values))
	for i, v := range c.Values {
		args[i] = v.Arg
	}
	return fmt.Sprintf(c.Format, args...)
}

// Markdown renders the table as one report section.
func (t *Table) Markdown() string {
	var b strings.Builder
	b.WriteString("## " + t.Heading + "\n\n")
	if t.Note != "" {
		b.WriteString(t.Note + "\n\n")
	}
	if len(t.Header) == 0 {
		for _, r := range t.Rows {
			b.WriteString("- ")
			for _, c := range r.Cells {
				b.WriteString(c.render())
			}
			b.WriteString("\n")
		}
		return b.String()
	}
	b.WriteString("| " + strings.Join(t.Header, " | ") + " |\n")
	b.WriteString("|" + strings.Repeat("---|", len(t.Header)) + "\n")
	for _, r := range t.Rows {
		b.WriteString("|")
		for _, c := range r.Cells {
			b.WriteString(" " + c.render() + " |")
		}
		b.WriteString("\n")
	}
	return b.String()
}

// Metrics lists the table's named values, shown and hidden, in row order.
func (t *Table) Metrics() []perf.Metric {
	var ms []perf.Metric
	add := func(v Value) {
		if v.Name != "" {
			ms = append(ms, perf.Metric{Name: v.Name, Value: v.Num, Dir: v.Dir})
		}
	}
	for _, r := range t.Rows {
		for _, c := range r.Cells {
			for _, v := range c.Values {
				add(v)
			}
		}
		for _, v := range r.Hidden {
			add(v)
		}
	}
	return ms
}
