package experiments

import (
	"fmt"
	"time"

	"repro/internal/assign"
	"repro/internal/data"
	"repro/internal/infer"
	"repro/internal/synth"
)

// Fig12 reproduces Figure 12: execution time per crowdsourcing round (truth
// inference + task assignment) for each combination the paper plots. The
// absolute numbers depend on hardware and scale; the paper's shape — VOTE/
// CRH/DOCS/TDH fast, LFC slowest on BirthPlaces, ACCU/POPACCU slowest on
// Heritages — should hold.
func Fig12(cfg Config) []*Report {
	cfg = cfg.WithDefaults()
	combos := []Combo{
		{"VOTE", "ME"}, {"CRH", "ME"}, {"POPACCU", "ME"}, {"ACCU", "ME"},
		{"DOCS", "MB"}, {"TDH", "EAI"}, {"MDC", "ME"}, {"LCA", "ME"},
		{"ASUMS", "ME"}, {"LFC", "ME"},
	}
	var reps []*Report
	for _, ds := range datasets(cfg) {
		rep := &Report{
			ID:    "fig12",
			Title: "Execution time per round, seconds (" + ds.Name + ")",
			Cols:  []string{"infer(s)", "assign(s)", "total(s)"},
		}
		workers := synth.NewWorkerPool(synth.WorkerPoolConfig{Seed: cfg.Seed, Count: 10, Pi: 0.75})
		rounds := 3 // average over a few rounds; enough for a timing shape
		for _, combo := range combos {
			evCfg := cfg
			evCfg.EvalEvery = rounds + 1 // skip per-round metric cost
			tr := runCombo(evCfg, ds, combo, workers, rounds)
			var ti, ta time.Duration
			n := 0
			for _, st := range tr.Rounds {
				ti += st.InferTime
				ta += st.AssignTime
				n++
			}
			tis := ti.Seconds() / float64(n)
			tas := ta.Seconds() / float64(n)
			rep.Rows = append(rep.Rows, Row{
				Label: combo.Inference + "+" + combo.Assignment,
				Cells: []float64{tis, tas, tis + tas},
			})
		}
		rep.Notes = append(rep.Notes,
			"expected shape (paper Fig. 12): LFC slowest on BirthPlaces (confusion matrices); ACCU/POPACCU slowest on Heritages (many sources)")
		reps = append(reps, rep)
	}
	return reps
}

// Fig13 reproduces Figure 13: task-assignment time per round with and
// without the UEAI pruning bound while duplicating the datasets by scale
// factors 1–15. evalSettled counts the pruned scan's evaluations the no-flip
// certificate answered in O(|V|) (core.Model.SettledAt), an extension of the
// paper's experiment.
func Fig13(cfg Config) []*Report {
	cfg = cfg.WithDefaults()
	factors := []int{1, 5, 10, 15}
	var reps []*Report
	for _, base := range datasets(cfg) {
		rep := &Report{
			ID:    "fig13",
			Title: "Task assignment time vs scale factor (" + base.Name + ")",
			Cols:  []string{"noPrune(s)", "withPrune(s)", "saved(%)", "evalNoPrune", "evalPrune", "evalSettled"},
		}
		for _, f := range factors {
			ds := base.Scale(f)
			idx := data.NewIndex(ds)
			res := infer.NewTDH().Infer(idx)
			workers := synth.NewWorkerPool(synth.WorkerPoolConfig{Seed: cfg.Seed, Count: 10, Pi: 0.75})
			names := make([]string, len(workers))
			for i, w := range workers {
				names[i] = w.Name
			}
			ctx := &assign.Context{Idx: idx, Res: res, Workers: names, K: 5, Seed: cfg.Seed}

			t0 := time.Now()
			_, stNo := assign.EAI{DisablePruning: true}.AssignWithStats(ctx)
			noPrune := time.Since(t0).Seconds()

			t1 := time.Now()
			_, stYes := assign.EAI{}.AssignWithStats(ctx)
			withPrune := time.Since(t1).Seconds()

			saved := 0.0
			if noPrune > 0 {
				saved = 100 * (noPrune - withPrune) / noPrune
			}
			rep.Rows = append(rep.Rows, Row{
				Label: fmt.Sprintf("x%d", f),
				Cells: []float64{noPrune, withPrune, saved, float64(stNo.Evaluated), float64(stYes.Evaluated), float64(stYes.Settled)},
			})
		}
		rep.Notes = append(rep.Notes,
			"expected shape (paper Fig. 13): pruning saves a growing share of assignment time as the scale factor rises (78%/94% at x15 in the paper)")
		reps = append(reps, rep)
	}
	return reps
}
