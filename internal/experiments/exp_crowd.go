package experiments

import (
	"fmt"
	"math"

	"repro/internal/crowd"
	"repro/internal/data"
	"repro/internal/engine"
	"repro/internal/synth"
)

// runCombo runs one (inference, assignment) crowdsourcing loop.
func runCombo(cfg Config, ds *data.Dataset, combo Combo, workers []synth.Worker, rounds int) *crowd.Trace {
	inf, ok := InferencerByName(combo.Inference)
	if !ok {
		panic("experiments: unknown inferencer " + combo.Inference)
	}
	asg, err := engine.NewAssigner(engine.Categorical, combo.Assignment)
	if err != nil {
		panic("experiments: " + err.Error())
	}
	// Scale the per-worker question count with the dataset scale so the
	// answers-per-object ratio matches the paper's setting (5 questions ×
	// 10 workers × 50 rounds over 6,005/785 objects); without this a
	// scaled-down dataset saturates and every assigner converges.
	k := int(5*cfg.Scale + 0.5)
	if k < 1 {
		k = 1
	}
	return crowd.RunLoop(ds, inf, asg, crowd.Config{
		Rounds:    rounds,
		K:         k,
		Seed:      cfg.Seed,
		Workers:   workers,
		EvalEvery: cfg.EvalEvery,
	})
}

// roundCurveReport renders one metric of several traces as a
// rows=combo × cols=round table (every EvalEvery rounds, like the paper's
// every-5-rounds plots).
func roundCurveReport(id, title, metric string, cfg Config, traces map[string]*crowd.Trace, rounds int) *Report {
	rep := &Report{ID: id, Title: title}
	for r := 0; r <= rounds; r += cfg.EvalEvery {
		rep.Cols = append(rep.Cols, fmt.Sprintf("r%d", r))
	}
	for label, tr := range traces {
		row := Row{Label: label}
		for r := 0; r <= rounds; r += cfg.EvalEvery {
			var v float64 = math.NaN()
			for _, st := range tr.Rounds {
				if st.Round == r {
					switch metric {
					case "acc":
						v = st.Scores.Accuracy
					case "gen":
						v = st.Scores.GenAccuracy
					case "dist":
						v = st.Scores.AvgDistance
					}
					break
				}
			}
			row.Cells = append(row.Cells, v)
		}
		rep.Rows = append(rep.Rows, row)
	}
	sortRows(rep)
	return rep
}

func sortRows(rep *Report) {
	rows := rep.Rows
	for i := 1; i < len(rows); i++ {
		for j := i; j > 0 && rows[j].Label < rows[j-1].Label; j-- {
			rows[j], rows[j-1] = rows[j-1], rows[j]
		}
	}
}

// Fig6 reproduces Figure 6: TDH combined with EAI, QASCA and ME — Accuracy
// against crowdsourcing rounds on both datasets.
func Fig6(cfg Config) []*Report {
	cfg = cfg.WithDefaults()
	var reps []*Report
	for _, ds := range datasets(cfg) {
		workers := synth.NewWorkerPool(synth.WorkerPoolConfig{Seed: cfg.Seed, Count: 10, Pi: 0.75})
		traces := map[string]*crowd.Trace{}
		for _, ta := range []string{"EAI", "QASCA", "ME"} {
			traces["TDH+"+ta] = runCombo(cfg, ds, Combo{"TDH", ta}, workers, cfg.Rounds)
		}
		rep := roundCurveReport("fig6", "Task assignment with TDH — Accuracy per round ("+ds.Name+")",
			"acc", cfg, traces, cfg.Rounds)
		rep.Notes = append(rep.Notes, "expected shape (paper Fig. 6): TDH+EAI rises fastest; TDH+ME slowest")
		reps = append(reps, rep)
	}
	return reps
}

// Fig7 reproduces Figure 7: per-round actual vs estimated accuracy
// improvement for EAI and QASCA (with TDH), plus the mean absolute
// estimation error the paper quotes (EAI ≈ 0.08/0.26 pp vs QASCA ≈
// 0.28/2.66 pp on BirthPlaces/Heritages).
func Fig7(cfg Config) []*Report {
	cfg = cfg.WithDefaults()
	var reps []*Report
	for _, ds := range datasets(cfg) {
		workers := synth.NewWorkerPool(synth.WorkerPoolConfig{Seed: cfg.Seed, Count: 10, Pi: 0.75})
		rep := &Report{
			ID:    "fig7",
			Title: "Actual vs estimated accuracy improvement (" + ds.Name + ")",
			Cols:  []string{"mean-actual(pp)", "mean-estimated(pp)", "meanAbsErr(pp)"},
		}
		// Estimates need per-round evaluation to compare with actuals.
		evCfg := cfg
		evCfg.EvalEvery = 1
		for _, ta := range []string{"EAI", "QASCA"} {
			tr := runCombo(evCfg, ds, Combo{"TDH", ta}, workers, cfg.Rounds)
			var act, est, absErr float64
			n := 0
			for _, st := range tr.Rounds[:len(tr.Rounds)-1] {
				act += st.ActImprove * 100
				est += st.EstImprove * 100
				absErr += math.Abs(st.EstImprove-st.ActImprove) * 100
				n++
			}
			if n > 0 {
				act /= float64(n)
				est /= float64(n)
				absErr /= float64(n)
			}
			rep.Rows = append(rep.Rows, Row{Label: "TDH+" + ta, Cells: []float64{act, est, absErr}})
		}
		rep.Notes = append(rep.Notes,
			"expected shape (paper Fig. 7): EAI's estimate tracks the actual improvement; QASCA overestimates (larger meanAbsErr, estimated >> actual)")
		reps = append(reps, rep)
	}
	return reps
}

// Table4 reproduces Table 4: Accuracy after the final crowdsourcing round
// for every valid inference × assignment combination on both datasets.
func Table4(cfg Config) *Report {
	cfg = cfg.WithDefaults()
	rep := &Report{
		ID:    "table4",
		Title: fmt.Sprintf("Accuracy of the algorithm combinations after round %d", cfg.Rounds),
		Cols:  []string{"BirthPlaces", "Heritages"},
	}
	dss := datasets(cfg)
	for _, combo := range Table4Combos() {
		row := Row{Label: combo.Inference + "+" + combo.Assignment}
		for _, ds := range dss {
			workers := synth.NewWorkerPool(synth.WorkerPoolConfig{Seed: cfg.Seed, Count: 10, Pi: 0.75})
			tr := runCombo(cfg, ds, combo, workers, cfg.Rounds)
			row.Cells = append(row.Cells, tr.Final().Accuracy)
		}
		rep.Rows = append(rep.Rows, row)
	}
	rep.Notes = append(rep.Notes,
		"expected shape (paper Table 4): TDH+EAI highest on both datasets; TDH best within every assigner column")
	return rep
}

// Fig8to10 reproduces Figures 8, 9 and 10: Accuracy, GenAccuracy and
// AvgDistance against rounds for the five headline combinations.
func Fig8to10(cfg Config) []*Report {
	cfg = cfg.WithDefaults()
	var reps []*Report
	for _, ds := range datasets(cfg) {
		workers := synth.NewWorkerPool(synth.WorkerPoolConfig{Seed: cfg.Seed, Count: 10, Pi: 0.75})
		traces := map[string]*crowd.Trace{}
		for _, combo := range HeadlineCombos() {
			traces[combo.Inference+"+"+combo.Assignment] = runCombo(cfg, ds, combo, workers, cfg.Rounds)
		}
		for _, spec := range []struct{ id, metric, title string }{
			{"fig8", "acc", "Accuracy with crowdsourced truth discovery"},
			{"fig9", "gen", "GenAccuracy with crowdsourced truth discovery"},
			{"fig10", "dist", "AvgDistance with crowdsourced truth discovery"},
		} {
			rep := roundCurveReport(spec.id, spec.title+" ("+ds.Name+")", spec.metric, cfg, traces, cfg.Rounds)
			rep.Notes = append(rep.Notes, "expected shape: TDH+EAI dominates every round on all three measures")
			reps = append(reps, rep)
		}
	}
	return reps
}

// Fig11 reproduces Figure 11: final Accuracy of the headline combinations
// while sweeping the simulated worker quality πp from 0.5 to 1.0.
func Fig11(cfg Config) []*Report {
	cfg = cfg.WithDefaults()
	pis := []float64{0.5, 0.6, 0.7, 0.8, 0.9, 1.0}
	var reps []*Report
	for _, ds := range datasets(cfg) {
		rep := &Report{
			ID:    "fig11",
			Title: "Final Accuracy vs worker quality πp (" + ds.Name + ")",
		}
		for _, pi := range pis {
			rep.Cols = append(rep.Cols, fmt.Sprintf("pi=%.1f", pi))
		}
		for _, combo := range HeadlineCombos() {
			row := Row{Label: combo.Inference + "+" + combo.Assignment}
			for _, pi := range pis {
				workers := synth.NewWorkerPool(synth.WorkerPoolConfig{Seed: cfg.Seed, Count: 10, Pi: pi})
				tr := runCombo(cfg, ds, combo, workers, cfg.Rounds)
				row.Cells = append(row.Cells, tr.Final().Accuracy)
			}
			rep.Rows = append(rep.Rows, row)
		}
		rep.Notes = append(rep.Notes,
			"expected shape (paper Fig. 11): accuracy grows with πp; TDH+EAI best at every πp")
		reps = append(reps, rep)
	}
	return reps
}

// Fig14to16 reproduces Figures 14–16 (crowdsourcing with human
// annotators): 20 rounds, 10 workers whose profiles include a
// generalization tendency, and dataset-dependent difficulty (Heritages
// workers weaker — the paper observed heritage locations are much harder
// for humans than celebrity birthplaces).
func Fig14to16(cfg Config) []*Report {
	cfg = cfg.WithDefaults()
	rounds := 20
	var reps []*Report
	for di, ds := range datasets(cfg) {
		pi := 0.85 // BirthPlaces: familiar big cities
		if di == 1 {
			pi = 0.62 // Heritages: unfamiliar regions
		}
		workers := synth.NewWorkerPool(synth.WorkerPoolConfig{Seed: cfg.Seed, Count: 10, Pi: pi, PGen: 0.1})
		traces := map[string]*crowd.Trace{}
		for _, combo := range []Combo{{"TDH", "EAI"}, {"LCA", "ME"}, {"DOCS", "MB"}, {"DOCS", "QASCA"}} {
			traces[combo.Inference+"+"+combo.Assignment] = runCombo(cfg, ds, combo, workers, rounds)
		}
		for _, spec := range []struct{ id, metric, title string }{
			{"fig14", "acc", "Accuracy with human annotations"},
			{"fig15", "gen", "GenAccuracy with human annotations"},
			{"fig16", "dist", "AvgDistance with human annotations"},
		} {
			rep := roundCurveReport(spec.id, spec.title+" ("+ds.Name+")", spec.metric, cfg, traces, rounds)
			rep.Notes = append(rep.Notes, "expected shape: TDH+EAI leads; Heritages improves slower than BirthPlaces")
			reps = append(reps, rep)
		}
	}
	return reps
}

// Fig17 reproduces Figure 17 (AMT): Heritages with 20 workers for 20
// rounds, all three quality measures.
func Fig17(cfg Config) []*Report {
	cfg = cfg.WithDefaults()
	rounds := 20
	ds := datasets(cfg)[1]
	workers := synth.NewWorkerPool(synth.WorkerPoolConfig{Seed: cfg.Seed + 9, Count: 20, Pi: 0.65, PGen: 0.1})
	traces := map[string]*crowd.Trace{}
	for _, combo := range []Combo{{"TDH", "EAI"}, {"LCA", "ME"}, {"DOCS", "MB"}, {"DOCS", "QASCA"}} {
		traces[combo.Inference+"+"+combo.Assignment] = runCombo(cfg, ds, combo, workers, rounds)
	}
	var reps []*Report
	for _, spec := range []struct{ id, metric, title string }{
		{"fig17", "acc", "AMT crowdsourcing — Accuracy (Heritages)"},
		{"fig17", "gen", "AMT crowdsourcing — GenAccuracy (Heritages)"},
		{"fig17", "dist", "AMT crowdsourcing — AvgDistance (Heritages)"},
	} {
		rep := roundCurveReport(spec.id, spec.title, spec.metric, cfg, traces, rounds)
		rep.Notes = append(rep.Notes, "expected shape (paper Fig. 17): as Figs. 14–16 but faster improvement with 20 workers")
		reps = append(reps, rep)
	}
	return reps
}
