// Package stats provides the small statistics and rendering toolkit used
// by the experiment runners: exact percentiles, a streaming quantile
// sketch (which also counts obs histograms), and ASCII tables / bar
// charts for printing figure-shaped output in a terminal.
package stats

import (
	"fmt"
	"math"
	"strings"
)

// Percentile returns the p-th percentile (0–100) of an ascending-sorted
// sample using nearest-rank with linear interpolation. An empty sample
// has no percentiles: it returns NaN — empty samples are legitimate (e.g.
// a simulation that served zero requests) and must not crash the caller.
func Percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Table renders rows as an aligned ASCII table.
type Table struct {
	Header []string
	Rows   [][]string
}

// Add appends a row, stringifying each cell with %v.
func (t *Table) Add(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// String renders the table.
func (t *Table) String() string {
	cols := len(t.Header)
	for _, r := range t.Rows {
		if len(r) > cols {
			cols = len(r)
		}
	}
	widths := make([]int, cols)
	measure := func(row []string) {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	if len(t.Header) > 0 {
		measure(t.Header)
	}
	for _, r := range t.Rows {
		measure(r)
	}
	var b strings.Builder
	writeRow := func(row []string) {
		for i := 0; i < cols; i++ {
			cell := ""
			if i < len(row) {
				cell = row[i]
			}
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	if len(t.Header) > 0 {
		writeRow(t.Header)
		for i := 0; i < cols; i++ {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(strings.Repeat("-", widths[i]))
		}
		b.WriteByte('\n')
	}
	for _, r := range t.Rows {
		writeRow(r)
	}
	return b.String()
}

// BarChart renders labeled values as a horizontal ASCII bar chart, the
// terminal stand-in for the paper's figures.
func BarChart(labels []string, values []float64, width int) string {
	if len(labels) != len(values) {
		panic(fmt.Sprintf("stats: BarChart got %d labels but %d values", len(labels), len(values)))
	}
	if width <= 0 {
		width = 40
	}
	maxV := 0.0
	maxL := 0
	for i, v := range values {
		if v > maxV {
			maxV = v
		}
		if len(labels[i]) > maxL {
			maxL = len(labels[i])
		}
	}
	var b strings.Builder
	for i, v := range values {
		n := 0
		if maxV > 0 {
			n = int(math.Round(v / maxV * float64(width)))
		}
		if v > 0 && n == 0 {
			n = 1
		}
		fmt.Fprintf(&b, "%-*s | %s %.2f\n", maxL, labels[i], strings.Repeat("#", n), v)
	}
	return b.String()
}

// Series is a labeled sequence of points for figure-shaped output.
type Series struct {
	Name string
	Xs   []float64
	Ys   []float64
}

// Append adds a point.
func (s *Series) Append(x, y float64) {
	s.Xs = append(s.Xs, x)
	s.Ys = append(s.Ys, y)
}

// RenderSeries prints aligned multi-series rows: x then one y per series.
// All series must share their x-axis.
func RenderSeries(xLabel string, series ...*Series) string {
	if len(series) == 0 {
		return ""
	}
	t := &Table{Header: append([]string{xLabel}, names(series)...)}
	for i := range series[0].Xs {
		row := make([]interface{}, 0, 1+len(series))
		row = append(row, series[0].Xs[i])
		for _, s := range series {
			if i < len(s.Ys) {
				row = append(row, s.Ys[i])
			} else {
				row = append(row, "")
			}
		}
		t.Add(row...)
	}
	return t.String()
}

func names(series []*Series) []string {
	out := make([]string, len(series))
	for i, s := range series {
		out[i] = s.Name
	}
	return out
}
