package experiments

import (
	"bytes"
	"strings"
	"testing"
)

// tinyCfg keeps experiment tests fast: 5% scale, few rounds, sparse eval.
func tinyCfg() Config {
	return Config{Scale: 0.06, Rounds: 6, Seed: 21, EvalEvery: 3}
}

func TestReportRenderAndCells(t *testing.T) {
	rep := &Report{
		ID:    "x",
		Title: "demo",
		Cols:  []string{"a", "b"},
		Rows:  []Row{{Label: "r1", Cells: []float64{1, 2}}, {Label: "r2", Cells: []float64{3, 4}}},
		Notes: []string{"note"},
	}
	if v, ok := rep.Cell("r2", "b"); !ok || v != 4 {
		t.Fatalf("Cell = %v, %v", v, ok)
	}
	if _, ok := rep.Cell("nope", "b"); ok {
		t.Fatal("missing row must not resolve")
	}
	if _, ok := rep.Cell("r1", "nope"); ok {
		t.Fatal("missing col must not resolve")
	}
	var buf bytes.Buffer
	rep.Print(&buf)
	out := buf.String()
	for _, want := range []string{"demo", "r1", "r2", "note", "1.0000"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered report missing %q:\n%s", want, out)
		}
	}
}

// cell reads a report cell the test needs, failing the test when it is
// missing.
func cell(t *testing.T, rep *Report, label, col string) float64 {
	t.Helper()
	v, ok := rep.Cell(label, col)
	if !ok {
		t.Fatalf("missing cell (%q, %q) in %s", label, col, rep.ID)
	}
	return v
}

func TestRegistry(t *testing.T) {
	if len(IDs()) != 15 {
		t.Fatalf("experiments = %d, want 15 (every table and figure plus the ablations)", len(IDs()))
	}
	for _, name := range []string{"TDH", "VOTE", "LCA", "DOCS", "ASUMS", "MDC", "ACCU", "POPACCU", "LFC", "CRH"} {
		if _, ok := InferencerByName(name); !ok {
			t.Fatalf("missing inferencer %s", name)
		}
	}
	if _, ok := InferencerByName("GHOST"); ok {
		t.Fatal("unknown inferencer must not resolve")
	}
	combos := Table4Combos()
	if len(combos) != 17 {
		t.Fatalf("table 4 combos = %d, want 17 (1 EAI + 1 MB + 5 QASCA + 10 ME)", len(combos))
	}
	for _, c := range combos {
		if c.Assignment == "EAI" && c.Inference != "TDH" {
			t.Fatal("EAI pairs only with TDH")
		}
		if c.Assignment == "MB" && c.Inference != "DOCS" {
			t.Fatal("MB pairs only with DOCS")
		}
	}
	if len(HeadlineCombos()) != 5 {
		t.Fatal("headline combos must be the paper's five")
	}
}

func TestFig1Shape(t *testing.T) {
	rep := Fig1(tinyCfg())
	if len(rep.Rows) == 0 {
		t.Fatal("no rows")
	}
	// Some source must show a positive generalization gap (Figure 1's
	// entire point).
	found := false
	for _, row := range rep.Rows {
		if row.Cells[3] > 0.02 {
			found = true
		}
		if row.Cells[1] > row.Cells[2]+1e-9 {
			t.Fatalf("%s: Accuracy above GenAccuracy", row.Label)
		}
	}
	if !found {
		t.Fatal("no source shows a generalization tendency")
	}
}

// table3Exceptions are the Table 3 inequalities that do not hold at tinyCfg
// (360 BirthPlaces objects): TDH is second on BirthPlaces accuracy and
// fourth on its average distance there. They are listed, not loosened: every
// other cell of the claim is asserted, and an entry that starts to hold
// fails the test until it is removed from this list.
var table3Exceptions = map[string]bool{
	"LFC/BP-Acc":     true, // 0.8722 vs TDH 0.8556
	"LCA/BP-AvgDist": true, // 0.4167 vs TDH 0.5083
	"LFC/BP-AvgDist": true, // 0.4167
	"CRH/BP-AvgDist": true, // 0.4528
}

// TestTable3Shape pins the paper's Table 3 claim at tinyCfg: TDH is at least
// as accurate as, and at most as far from the truth as, each of the nine
// baselines on both datasets.
func TestTable3Shape(t *testing.T) {
	rep := Table3(tinyCfg())
	if len(rep.Rows) != 10 {
		t.Fatalf("rows = %d, want 10 algorithms", len(rep.Rows))
	}
	for _, row := range rep.Rows {
		if row.Label == "TDH" {
			continue
		}
		for _, col := range []string{"BP-Acc", "BP-AvgDist", "HG-Acc", "HG-AvgDist"} {
			tdh, base := cell(t, rep, "TDH", col), cell(t, rep, row.Label, col)
			holds := tdh >= base
			if strings.HasSuffix(col, "AvgDist") {
				holds = tdh <= base
			}
			if key := row.Label + "/" + col; holds == table3Exceptions[key] {
				t.Errorf("%s: TDH %v vs %v, listed as an exception: %v", key, tdh, base, table3Exceptions[key])
			}
		}
	}
}

func TestFig5Shape(t *testing.T) {
	rep := Fig5(tinyCfg())
	if len(rep.Rows) < 7 {
		t.Fatalf("rows = %d, want the 7 BirthPlaces sources (plus anchor)", len(rep.Rows))
	}
	// φ1 must correlate with actual accuracy: the most accurate source's
	// φ1 should beat the least accurate source's φ1.
	bestAcc, worstAcc := "", ""
	var bestV, worstV float64 = -1, 2
	for _, row := range rep.Rows {
		acc, _ := rep.Cell(row.Label, "Accuracy")
		if acc > bestV {
			bestV, bestAcc = acc, row.Label
		}
		if acc < worstV {
			worstV, worstAcc = acc, row.Label
		}
	}
	if cell(t, rep, bestAcc, "phi1") <= cell(t, rep, worstAcc, "phi1") {
		t.Fatalf("phi1 should track accuracy: best=%s worst=%s", bestAcc, worstAcc)
	}
}

func TestFig6Shape(t *testing.T) {
	cfg := tinyCfg()
	reps := Fig6(cfg)
	if len(reps) != 2 {
		t.Fatalf("reports = %d, want one per dataset", len(reps))
	}
	for _, rep := range reps {
		if len(rep.Rows) != 3 {
			t.Fatalf("rows = %d, want TDH+{EAI,QASCA,ME}", len(rep.Rows))
		}
		// All start from the same round-0 accuracy.
		var first float64
		for i, row := range rep.Rows {
			if i == 0 {
				first = row.Cells[0]
			} else if row.Cells[0] != first {
				t.Fatal("round 0 must be identical across assigners")
			}
		}
		// The paper's Fig. 6 claim: by the final round EAI has bought at
		// least as much accuracy as ME and QASCA.
		last := rep.Cols[len(rep.Cols)-1]
		for _, other := range []string{"TDH+ME", "TDH+QASCA"} {
			if eai, o := cell(t, rep, "TDH+EAI", last), cell(t, rep, other, last); eai < o {
				t.Errorf("%s: TDH+EAI %v below %s %v at %s", rep.Title, eai, other, o, last)
			}
		}
	}
}

func TestFig7Shape(t *testing.T) {
	reps := Fig7(tinyCfg())
	for _, rep := range reps {
		qascaEst := cell(t, rep, "TDH+QASCA", "mean-estimated(pp)")
		qascaAct := cell(t, rep, "TDH+QASCA", "mean-actual(pp)")
		if qascaEst <= qascaAct {
			t.Errorf("%s: QASCA must overestimate (est %v vs act %v)", rep.Title, qascaEst, qascaAct)
		}
	}
}

// TestTable4Shape runs Table 4 at test scale: one row per combination, in
// Table4Combos order, with one accuracy cell per dataset.
func TestTable4Shape(t *testing.T) {
	rep := Table4(tinyCfg())
	combos := Table4Combos()
	if len(rep.Rows) != len(combos) {
		t.Fatalf("rows = %d, want one per Table4Combos entry (%d)", len(rep.Rows), len(combos))
	}
	for i, row := range rep.Rows {
		if want := combos[i].Inference + "+" + combos[i].Assignment; row.Label != want {
			t.Fatalf("row %d = %q, want %q", i, row.Label, want)
		}
		if len(row.Cells) != len(rep.Cols) {
			t.Fatalf("%s: %d cells for %d datasets", row.Label, len(row.Cells), len(rep.Cols))
		}
	}
}

// TestFig8to10Shape runs Figures 8–10 at test scale: per dataset one
// Accuracy, GenAccuracy and AvgDistance report, each a curve per headline
// combination.
func TestFig8to10Shape(t *testing.T) {
	reps := Fig8to10(tinyCfg())
	ids, combos := []string{"fig8", "fig9", "fig10"}, HeadlineCombos()
	if len(reps) != 2*len(ids) {
		t.Fatalf("reports = %d, want fig8/9/10 for each of the 2 datasets", len(reps))
	}
	for i, rep := range reps {
		if rep.ID != ids[i%len(ids)] {
			t.Fatalf("report %d = %s, want %s", i, rep.ID, ids[i%len(ids)])
		}
		if len(rep.Rows) != len(combos) {
			t.Fatalf("%s: rows = %d, want the %d headline combos", rep.Title, len(rep.Rows), len(combos))
		}
		labels := map[string]bool{}
		for _, row := range rep.Rows {
			labels[row.Label] = true
			if len(row.Cells) != len(rep.Cols) {
				t.Fatalf("%s %s: %d cells for %d rounds", rep.Title, row.Label, len(row.Cells), len(rep.Cols))
			}
		}
		for _, c := range combos {
			if !labels[c.Inference+"+"+c.Assignment] {
				t.Fatalf("%s: no curve for %s+%s", rep.Title, c.Inference, c.Assignment)
			}
		}
	}
}

func TestFig13Shape(t *testing.T) {
	cfg := tinyCfg()
	reps := Fig13(cfg)
	for _, rep := range reps {
		if len(rep.Rows) == 0 {
			t.Fatal("no scale factors")
		}
		for _, row := range rep.Rows {
			evalNo, _ := rep.Cell(row.Label, "evalNoPrune")
			evalP, _ := rep.Cell(row.Label, "evalPrune")
			if evalP > evalNo {
				t.Fatalf("%s: pruning evaluated more EAI scores (%v > %v)", row.Label, evalP, evalNo)
			}
			if settled, ok := rep.Cell(row.Label, "evalSettled"); !ok || settled > evalP {
				t.Fatalf("%s: evalSettled %v (present %v) must not exceed evalPrune %v", row.Label, settled, ok, evalP)
			}
		}
	}
}

func TestTable6Shape(t *testing.T) {
	rep := Table6(tinyCfg())
	if len(rep.Rows) != 6 {
		t.Fatalf("rows = %d, want 6 algorithms", len(rep.Rows))
	}
	// TDH must beat MEAN on every attribute's relative error.
	for _, col := range []string{"chg-R/E", "open-R/E", "eps-R/E"} {
		if cell(t, rep, "TDH", col) >= cell(t, rep, "MEAN", col) {
			t.Errorf("TDH should beat MEAN on %s", col)
		}
	}
}
