package infer

import (
	"repro/internal/core"
	"repro/internal/data"
)

// TDH wraps the paper's hierarchical truth-inference model (internal/core)
// behind the common Inferencer interface. Result.Rows and Result.Model are
// the fitted *core.Model itself, so the EAI assigner reaches the sufficient
// statistics and nothing is copied out of the fit.
type TDH struct {
	Opt core.Options
}

// NewTDH returns TDH with the paper's default hyperparameters.
func NewTDH() TDH { return TDH{Opt: core.DefaultOptions()} }

// Name implements Inferencer.
func (t TDH) Name() string {
	if t.Opt.UniformWorkerErrors {
		return "TDH-NOPOP"
	}
	return "TDH"
}

// Infer implements Inferencer: the fitted model packaged by ViewOf, plus
// the truths map batch consumers read, filled once per fit.
func (t TDH) Infer(idx *data.Index) *Result {
	m := core.Run(idx, t.Opt)
	res := ViewOf(m, nil)
	res.Truths = m.Truths()
	return res
}

// ViewOf packages a sealed — never again mutated — model as a Result
// without copying it: Rows and Model are m. The trust maps are prev's own
// when m has prev's participants, since a fold never writes φ/ψ; a fit
// (prev nil) or growth that added participants builds them from m. This is
// what a live engine publishes between fits, so sealing a fold costs O(1),
// not O(|O|).
func ViewOf(m *core.Model, prev *Result) *Result {
	res := &Result{Rows: m, Model: m}
	if prev != nil && len(m.Phi) == len(prev.SourceTrust) && len(m.Psi) == len(prev.WorkerTrust) {
		res.SourceTrust, res.WorkerTrust = prev.SourceTrust, prev.WorkerTrust
	} else {
		res.SourceTrust, res.WorkerTrust = trustMaps(m)
	}
	return res
}

// trustMaps publishes φ_{s,1} and ψ_{w,1} — the exact-claim probabilities —
// as the scalar source and worker trust.
func trustMaps(m *core.Model) (sources, workers map[string]float64) {
	sources = make(map[string]float64, len(m.Phi))
	workers = make(map[string]float64, len(m.Psi))
	for sid, s := range m.Idx.SourceNames {
		sources[s] = m.Phi[sid][0]
	}
	for wid, w := range m.Idx.WorkerNames {
		workers[w] = m.Psi[wid][0]
	}
	return sources, workers
}
