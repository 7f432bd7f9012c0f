// Package experiments reproduces every table and figure of the paper's
// evaluation (Section 5). Each experiment builds its workload from the
// synthetic dataset generators, runs the algorithms under test, and renders
// the same rows/series the paper reports. See DESIGN.md §4 for the index.
package experiments

import (
	"fmt"
	"io"
	"strings"
)

// Config controls experiment scale so the same drivers serve quick tests,
// CI benches and full paper-scale runs.
type Config struct {
	// Scale multiplies dataset sizes; 1.0 = paper-sized. Default 0.25.
	Scale float64
	// Rounds of crowdsourcing for the round-curve experiments; default 50
	// (20 for the human/AMT experiments, as in the paper).
	Rounds int
	// Seed drives all generators and simulations.
	Seed int64
	// EvalEvery: evaluate metrics every n rounds in loop experiments
	// (default 5, matching the paper's plotted granularity).
	EvalEvery int
}

// WithDefaults fills unset fields.
func (c Config) WithDefaults() Config {
	if c.Scale == 0 {
		c.Scale = 0.25
	}
	if c.Rounds == 0 {
		c.Rounds = 50
	}
	if c.Seed == 0 {
		c.Seed = 7
	}
	if c.EvalEvery == 0 {
		c.EvalEvery = 5
	}
	return c
}

// Report is a rendered experiment: a titled table plus free-form notes.
// Cells keep their float values so tests can assert on shapes without
// parsing strings.
type Report struct {
	ID    string // e.g. "table3", "fig6"
	Title string
	Cols  []string
	Rows  []Row
	Notes []string
}

// Row is one labelled row of numeric cells.
type Row struct {
	Label string
	Cells []float64
}

// Cell fetches a value by row label and column name (NaN if missing).
func (r *Report) Cell(label, col string) (float64, bool) {
	ci := -1
	for i, c := range r.Cols {
		if c == col {
			ci = i
			break
		}
	}
	if ci < 0 {
		return 0, false
	}
	for _, row := range r.Rows {
		if row.Label == label && ci < len(row.Cells) {
			return row.Cells[ci], true
		}
	}
	return 0, false
}

// Print renders the report as an aligned text table.
func (r *Report) Print(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", r.ID, r.Title)
	labelW := len("row")
	for _, row := range r.Rows {
		if len(row.Label) > labelW {
			labelW = len(row.Label)
		}
	}
	colW := make([]int, len(r.Cols))
	for i, c := range r.Cols {
		colW[i] = len(c)
		if colW[i] < 9 {
			colW[i] = 9
		}
	}
	fmt.Fprintf(w, "%-*s", labelW+2, "")
	for i, c := range r.Cols {
		fmt.Fprintf(w, " %*s", colW[i], c)
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, strings.Repeat("-", labelW+2+sum(colW)+len(colW)))
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-*s", labelW+2, row.Label)
		for i, v := range row.Cells {
			w2 := 9
			if i < len(colW) {
				w2 = colW[i]
			}
			fmt.Fprintf(w, " %*.4f", w2, v)
		}
		fmt.Fprintln(w)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	fmt.Fprintln(w)
}

func sum(xs []int) int {
	s := 0
	for _, x := range xs {
		s += x
	}
	return s
}
