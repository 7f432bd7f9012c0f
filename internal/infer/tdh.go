package infer

import (
	"repro/internal/core"
	"repro/internal/data"
)

// TDH wraps the paper's hierarchical truth-inference model (internal/core)
// behind the common Inferencer interface. Result.Model carries the fitted
// *core.Model so the EAI assigner can reach the sufficient statistics.
type TDH struct {
	Opt core.Options
}

// NewTDH returns TDH with the paper's default hyperparameters.
func NewTDH() TDH { return TDH{Opt: core.DefaultOptions()} }

// Name implements Inferencer.
func (t TDH) Name() string {
	if t.Opt.FlatModel {
		return "TDH-FLAT"
	}
	if t.Opt.UniformWorkerErrors {
		return "TDH-NOPOP"
	}
	return "TDH"
}

// Infer implements Inferencer.
func (t TDH) Infer(idx *data.Index) *Result {
	return ResultFromModel(core.Run(idx, t.Opt))
}

// ResultFromModel packages a fitted TDH model as a Result with every map
// filled — once per FIT, which is what batch consumers (the crowd loop, the
// experiments, cmd/tdh) read. Confidence slices are copied, so the maps stay
// valid even if the caller later advances the model in place.
func ResultFromModel(m *core.Model) *Result {
	idx := m.Idx
	res := &Result{
		Truths:     m.Truths(),
		Confidence: make(map[string][]float64, m.NumObjects()),
		Model:      m,
	}
	res.SourceTrust, res.WorkerTrust = trustMaps(m)
	for oid, o := range idx.Objects {
		res.Confidence[o] = append([]float64(nil), m.MuAt(oid)...)
	}
	return res
}

// ViewOf packages a sealed — never again mutated — model as a Result
// WITHOUT copying it: per-object content is served from m through the read
// API (view.go; Truths and Confidence stay nil), and the trust maps are
// prev's own, since a fold never writes φ/ψ; only growth that added
// participants rebuilds them. This is what a live engine publishes between
// fits, so sealing a fold costs O(1), not O(|O|).
func ViewOf(m *core.Model, prev *Result) *Result {
	res := &Result{Model: m, SourceTrust: prev.SourceTrust, WorkerTrust: prev.WorkerTrust}
	if len(m.Phi) != len(prev.SourceTrust) || len(m.Psi) != len(prev.WorkerTrust) {
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
