// Package core implements TDH, the paper's hierarchical truth-discovery
// model (Section 3): a probabilistic generative model in which every source
// and worker has a three-way trustworthiness distribution — the probability
// of claiming the exact truth, a generalized (ancestor) truth, or a wrong
// value — estimated jointly with per-object confidence distributions by a
// MAP-EM algorithm.
//
// The engine runs on the dense-ID index of internal/data: parameters are
// ID-indexed slices, the claim model reads precomputed relationship and
// popularity tables, and the E-step reuses scratch buffers so steady-state
// iterations allocate nothing. Run is the one fit kernel: plain EM steps
// in SQUAREM cycles, a cold and deterministic function of the index. Every
// claim goes through one claim kernel (claimList), which builds what a claim
// takes from θ once per participant per pass and dispatches once per object;
// the E-step, the sufficient-statistic refresh that ends a fit, Grow's local
// step and LogPosterior all run it.
//
// Between fits the streaming layers fold answers into clones (Section 4.2's
// one-step incremental EM). A fitted model's μ, N and D are three flat
// arrays cut into copy-on-write pages of 256 objects; Model.Clone copies the
// page tables, shares every page, φ, ψ and the offsets, and the fold
// (ApplyAnswerAt) copies the one page it writes, once per clone. A clone is
// therefore fold-only — it has no flat arrays to step EM on — and a model is
// sealed from the moment it is cloned: the only legal writer of any page is
// the fold of a clone that has not been cloned itself. See README.md
// ("Performance architecture").
package core

// Options are the hyperparameters of the TDH model. Zero-value fields are
// replaced by the paper's defaults (Section 5.1) by WithDefaults.
type Options struct {
	// Alpha is the Dirichlet prior of source trustworthiness φs.
	// Paper default (3, 3, 2): correct values are more frequent than wrong
	// ones for most sources.
	Alpha [3]float64
	// Beta is the Dirichlet prior of worker trustworthiness ψw; default (2,2,2).
	Beta [3]float64
	// Gamma is the symmetric Dirichlet prior of each confidence μo; default 2.
	Gamma float64
	// MaxIter bounds the E/M evaluations Run performs — every step of an
	// accelerated cycle is one, so the bound means what it did for plain
	// EM: full passes over the claims; default 200. A fit that reaches it
	// has not converged (Model.FinalDelta >= Tol).
	MaxIter int
	// Tol is the convergence threshold on the max absolute confidence
	// change of one evaluation; default 1e-7.
	Tol float64
	// FlatModel, when true, ignores the hierarchy entirely and degrades TDH
	// to a flat correct/wrong model (ablation hook; zero value = paper model).
	FlatModel bool
	// UniformWorkerErrors, when true, replaces the source-popularity
	// distributions Pop2/Pop3 of the worker model (Eq. 3) with uniform
	// choices (ablation for the source→worker dependency; zero value =
	// paper model).
	UniformWorkerErrors bool
}

// DefaultOptions returns the paper's hyperparameter settings.
func DefaultOptions() Options {
	return Options{
		Alpha:   [3]float64{3, 3, 2},
		Beta:    [3]float64{2, 2, 2},
		Gamma:   2,
		MaxIter: 200,
		Tol:     1e-7,
	}
}

// WithDefaults fills unset (zero) fields with the paper's defaults.
func (o Options) WithDefaults() Options {
	d := DefaultOptions()
	if o.Alpha == ([3]float64{}) {
		o.Alpha = d.Alpha
	}
	if o.Beta == ([3]float64{}) {
		o.Beta = d.Beta
	}
	if o.Gamma == 0 {
		o.Gamma = d.Gamma
	}
	if o.MaxIter == 0 {
		o.MaxIter = d.MaxIter
	}
	if o.Tol == 0 {
		o.Tol = d.Tol
	}
	return o
}

// eps floors every categorical probability so EM stays well-defined when a
// popularity denominator or a case-3 candidate pool is empty.
const eps = 1e-12
