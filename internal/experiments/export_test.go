package experiments

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"slices"
	"strings"
	"testing"
)

func sampleReport() *Report {
	return &Report{
		ID:    "sample",
		Title: "sample report",
		Cols:  []string{"x", "y"},
		Rows: []Row{
			{Label: "row1", Cells: []float64{1.5, 2.25}},
			{Label: "row,with,commas", Cells: []float64{-3, 0.001}},
		},
		Notes: []string{"a note"},
	}
}

func TestWriteCSV(t *testing.T) {
	var buf bytes.Buffer
	if err := sampleReport().WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	records, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 3 {
		t.Fatalf("records = %d", len(records))
	}
	if records[0][0] != "row" || records[0][1] != "x" {
		t.Fatalf("header = %v", records[0])
	}
	if records[2][0] != "row,with,commas" {
		t.Fatalf("comma label not escaped: %v", records[2])
	}
	if records[1][1] != "1.5" {
		t.Fatalf("cell = %v", records[1][1])
	}
}

func TestWriteJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := sampleReport().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var got Report
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if got.ID != "sample" || len(got.Rows) != 2 || got.Rows[1].Cells[0] != -3 {
		t.Fatalf("round-trip = %+v", got)
	}
}

func TestRenderFormats(t *testing.T) {
	for _, format := range []string{"", "text", "csv", "json"} {
		var buf bytes.Buffer
		if err := sampleReport().Render(&buf, format); err != nil {
			t.Fatalf("format %q: %v", format, err)
		}
		if buf.Len() == 0 {
			t.Fatalf("format %q produced nothing", format)
		}
	}
	var buf bytes.Buffer
	if err := sampleReport().Render(&buf, "xml"); err == nil {
		t.Fatal("unknown format must error")
	}
}

// TestRunFormatted runs an experiment by ID in the CSV and text formats (the
// text output names the report), and an unknown ID in each, which errors.
func TestRunFormatted(t *testing.T) {
	for _, c := range []struct {
		id, format string
		want       string // a substring of the output; "" = must error
	}{
		{"fig1", "csv", "GenAccuracy"},
		{"fig1", "text", "fig1"},
		{"ghost", "csv", ""},
		{"nope", "text", ""},
	} {
		var buf bytes.Buffer
		err := RunFormatted(&buf, c.id, c.format, tinyCfg())
		switch {
		case c.want == "" && err == nil:
			t.Errorf("%s as %s: unknown experiment must error", c.id, c.format)
		case c.want != "" && err != nil:
			t.Errorf("%s as %s: %v", c.id, c.format, err)
		case !strings.Contains(buf.String(), c.want):
			t.Errorf("%s as %s: output missing %q", c.id, c.format, c.want)
		}
	}
}

// TestAblationSmoke runs the ablation drivers at tiny scale and checks the
// structural expectations.
func TestAblationSmoke(t *testing.T) {
	reps := Ablation(tinyCfg())
	if len(reps) != 2 {
		t.Fatalf("reports = %d", len(reps))
	}
	model := reps[0]
	tdh := cell(t, model, "TDH", "BP-Acc")
	flat := cell(t, model, "TDH-FLAT", "BP-Acc")
	if tdh < flat-0.02 {
		t.Errorf("hierarchy ablation should not beat TDH: %v vs %v", tdh, flat)
	}
	// The note on the expected order states what the cells show, per
	// dataset and per inequality.
	for _, col := range []string{"BP-Acc", "HG-Acc"} {
		i := slices.IndexFunc(model.Notes, func(n string) bool { return strings.HasPrefix(n, col+" ") })
		if i < 0 {
			t.Fatalf("no note on the %s order in %q", col, model.Notes)
		}
		for _, pair := range [][2]string{{"TDH", "TDH-NOPOP"}, {"TDH-NOPOP", "TDH-FLAT"}} {
			verdict := "holds"
			if cell(t, model, pair[0], col) < cell(t, model, pair[1], col) {
				verdict = "does not hold"
			}
			if want := pair[0] + " ≥ " + pair[1] + " " + verdict; !strings.Contains(model.Notes[i], want) {
				t.Errorf("note %q does not say %q", model.Notes[i], want)
			}
		}
	}
	inc := reps[1]
	for _, row := range inc.Rows {
		agree := cell(t, inc, row.Label, "winnerAgree")
		// The tiny test scale samples only a handful of objects, so accept
		// a loose bound here; the paper-scale run shows ≈1.0 agreement.
		if agree < 0.5 {
			t.Errorf("%s: incremental EM winner agreement %v too low", row.Label, agree)
		}
		speedup := cell(t, inc, row.Label, "speedup")
		if speedup < 10 {
			t.Errorf("%s: speedup %v implausibly low", row.Label, speedup)
		}
	}
}

// TestFig12Smoke checks that timing rows exist and totals are positive.
func TestFig12Smoke(t *testing.T) {
	cfg := tinyCfg()
	reps := Fig12(cfg)
	if len(reps) != 2 {
		t.Fatalf("reports = %d", len(reps))
	}
	for _, rep := range reps {
		if len(rep.Rows) != 10 {
			t.Fatalf("rows = %d, want the 10 plotted combos", len(rep.Rows))
		}
		for _, row := range rep.Rows {
			total := cell(t, rep, row.Label, "total(s)")
			if total <= 0 {
				t.Fatalf("%s: non-positive timing", row.Label)
			}
		}
	}
}

// TestFig11Smoke: accuracy should broadly rise with worker quality for the
// TDH+EAI row.
func TestFig11Smoke(t *testing.T) {
	cfg := tinyCfg()
	cfg.Rounds = 4
	reps := Fig11(cfg)
	for _, rep := range reps {
		lo := cell(t, rep, "TDH+EAI", "pi=0.5")
		hi := cell(t, rep, "TDH+EAI", "pi=1.0")
		if hi+0.05 < lo {
			t.Errorf("%s: accuracy at πp=1.0 (%v) should not trail πp=0.5 (%v)", rep.Title, hi, lo)
		}
	}
}

// TestFig14And17Smoke: the human/AMT drivers produce the expected report
// sets.
func TestFig14And17Smoke(t *testing.T) {
	cfg := tinyCfg()
	if got := len(Fig14to16(cfg)); got != 6 {
		t.Fatalf("fig14-16 reports = %d, want 6 (3 metrics × 2 datasets)", got)
	}
	if got := len(Fig17(cfg)); got != 3 {
		t.Fatalf("fig17 reports = %d, want 3 metrics", got)
	}
}

// TestTable5Smoke: every algorithm must appear with P/R/F1 in [0,1].
func TestTable5Smoke(t *testing.T) {
	rep := Table5(tinyCfg())
	if len(rep.Rows) != 13 {
		t.Fatalf("rows = %d, want 10 single + 3 multi", len(rep.Rows))
	}
	for _, row := range rep.Rows {
		for i, v := range row.Cells {
			if v < 0 || v > 1 {
				t.Fatalf("%s cell %d = %v out of [0,1]", row.Label, i, v)
			}
		}
	}
}
