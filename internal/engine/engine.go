// Package engine defines the pluggable truth-model abstraction that
// decouples the crowdsourcing server and the campaign manager from any one
// inference family. An Engine owns everything model-specific a live
// campaign needs: fitting an index from scratch, folding freshly accepted
// answers in incrementally, re-seeding after open-world index growth,
// validating a worker answer's typed payload, and encoding truths /
// confidence for the wire. Three engines ship:
//
//   - categorical: the paper's single-truth setting — TDH (hierarchy-aware
//     EM with incremental updates and growth) and the Section 5.1 baselines;
//   - numeric: continuous truths estimated by CRH / CATD / MEAN / MEDIAN /
//     VOTE over source records and worker answers;
//   - multi_truth: value-SET truths discovered by LTM / DART / LFC-MT.
//
// All three speak one incremental contract, the epoch (EpochFolder): the
// update between fits is object-local — it writes what the cycle's answers
// touched and nothing else — with whatever is global (TDH's φ/ψ, numeric's
// provider weights) frozen at the last Fit, and an engine with no such
// update (multi-truth, the categorical baselines) says so in one line: its
// answers and its growth alike wait for the next Fit, and until then it is
// served as it was fitted, over the index it was fitted on. Every
// state publishes its per-object content in one shape, a dense table read
// by object ID (infer.Result.Rows), and a sealed epoch's table is the sealed
// state itself, not a copy of it (State.Res): confidence rows are shared
// with the state, truths are computed from a row on demand, trust maps
// carry over from the previous result, and the name-keyed /truths map is
// materialised on first use, at most once per state. A publish therefore
// costs what it touched; the one thing every engine owes in return is never
// to write a State it has returned — folds and growth copy what they write
// first.
//
// The server's pipeline, snapshot and handlers speak only this interface
// (internal/server), and campaigns declare their truth model at create time
// (internal/campaign). The registry (registry.go) maps per-model inferencer
// and assigner names to constructors.
package engine

import (
	"fmt"

	"repro/internal/data"
	"repro/internal/infer"
)

// TruthModel identifies one truth-model family.
type TruthModel string

const (
	Categorical TruthModel = "categorical"
	Numeric     TruthModel = "numeric"
	MultiTruth  TruthModel = "multi_truth"
)

// ParseTruthModel maps the wire spelling to a TruthModel; the empty string
// is categorical, so campaigns and configs from before truth models existed
// keep their meaning.
func ParseTruthModel(s string) (TruthModel, error) {
	switch TruthModel(s) {
	case "":
		return Categorical, nil
	case Categorical, Numeric, MultiTruth:
		return TruthModel(s), nil
	}
	return "", fmt.Errorf("unknown truth model %q (valid: %s, %s, %s)",
		s, Categorical, Numeric, MultiTruth)
}

// Config carries the model-independent knobs an engine constructor may use.
type Config struct {
	// Seed drives any stochastic fitting the engine performs.
	Seed int64
}

// State is one published inference round: immutable once returned by an
// Engine method, so the server can hand it to concurrent readers without a
// lock. Its wire encoders define the per-model /truths and /confidence
// response shapes.
type State interface {
	// Res is the assigner-facing view — the per-object rows and truths (an
	// infer.Dense by object ID), trust maps, and (when the engine has one)
	// the fitted model — which is what assign.NewPlan and every Assigner
	// consume. Never nil, and its Rows never nil.
	//
	// Rows is the fitted *core.Model for TDH, an infer.Table for the
	// categorical baselines and multi-truth discovery, and the numeric state
	// itself for numeric models; after a fold or a Grow it is the sealed
	// state, shared rather than copied (infer.ViewOf). The trust maps are
	// the previous result's own unless growth added participants. Truths is
	// filled only by a categorical Fit: readers go through the ID-based read
	// API (Result.ConfidenceAt / TruthAt / TruthMap), which serves every
	// state alike.
	Res() *infer.Result
	// Truths is the GET /truths payload: map[object]value (categorical),
	// map[object]float64 (numeric), or map[object][]value (multi_truth).
	// A folded state materialises the map on first use, once.
	Truths() any
	// Confidence is the GET /confidence payload for object oid of the
	// state's own index, the one every snapshot publishes it with.
	Confidence(oid int) any
	// Quality scores the state against the dataset's gold standard for
	// /stats, keyed by metric name (e.g. accuracy, mae, f1). Nil when the
	// dataset has no gold or the model defines no quality metric.
	Quality(ds *data.Dataset, idx *data.Index) map[string]float64
}

// Engine is one truth-model implementation. The pipeline goroutine calls
// every method, and runs Fit on a goroutine of its own beside them, over an
// index no other call reads; implementations never mutate a State after
// returning it (incremental updates copy what they write first) and keep no
// mutable state of their own.
type Engine interface {
	// Model reports which truth-model family this engine implements.
	Model() TruthModel
	// Name is the configured inference algorithm's name (for /stats).
	Name() string
	// Fit runs full inference over the index.
	Fit(idx *data.Index) State
	// EpochFolder is the one incremental contract: every engine opens
	// epochs, and one with no incremental path says so with ok=false.
	EpochFolder
	// ApplyAnswers is the single-batch spelling of an epoch — open, fold
	// once, seal (applyAnswers) — with NewEpoch's ok. The server never calls
	// it; it stays for callers that fold one batch at a time.
	ApplyAnswers(st State, idx *data.Index, answers []data.Answer) (State, bool)
	// Grow re-seeds the state after the index was extended
	// (data.Index.Extend) with the touched object IDs: object-local, like a
	// fold. ok=false means the engine has no incremental path for its
	// current state: growth is held like answers — the caller drops the
	// extended index and keeps publishing the old state with the old index
	// until the next policy-triggered Fit indexes the growth.
	Grow(st State, idx *data.Index, touched []int) (State, bool)
	// ValidateAnswer checks (and canonicalizes, in place) one worker
	// answer's typed payload against the object's candidate view. The
	// returned error text is served as the HTTP 422 body.
	ValidateAnswer(ov *data.ObjectView, a *data.Answer) error
}

// EpochFolder folds one publish's worth of answers into a copy of the
// published state. The contract every implementation keeps: the update is
// object-local — folding an answer reads shared immutable state and writes
// only that object's rows (TDH's Section 4.2 property; numeric estimates
// given frozen provider weights) — so a publish's state delta is exactly
// the epoch's touched objects, around which the previous snapshot's
// assignment plan is Advance'd instead of rebuilt. What is global — TDH's
// φ/ψ, numeric's provider weights — stays frozen at the last Fit;
// RefitPolicy's refit_staleness_ms bounds how stale that may get, and so
// does refit_answers, the floor of a count threshold that doubles while
// refits flip no truth (with staleness disabled it keeps doubling).
type EpochFolder interface {
	// NewEpoch opens a fold epoch over st for idx, the answers already
	// appended to idx.DS. ok=false means the state has no incremental path
	// (a baseline inferencer, multi-truth discovery): the answers wait for
	// the next policy-triggered Fit and the old state keeps being served.
	NewEpoch(st State, idx *data.Index) (Epoch, bool)
}

// Epoch is one in-flight fold, driven from one goroutine: Fold may be called
// any number of times, then Seal once, which yields the folded State;
// Touched then lists the dense IDs of the objects the folds wrote
// (duplicates allowed). An epoch is single-use.
type Epoch interface {
	Fold(answers []data.Answer)
	Seal() State
	Touched() []int
}

// applyAnswers is Engine.ApplyAnswers for every engine.
func applyAnswers(e EpochFolder, st State, idx *data.Index, answers []data.Answer) (State, bool) {
	ep, ok := e.NewEpoch(st, idx)
	if !ok {
		return st, false
	}
	ep.Fold(answers)
	return ep.Seal(), true
}

// touchedIDs collects the object IDs an epoch's folds wrote.
type touchedIDs struct{ ids []int }

// Touched implements Epoch.
func (t *touchedIDs) Touched() []int { return t.ids }

// supportOf is the per-candidate half of a /confidence payload: the result's
// confidence row of object oid keyed by candidate value. A partial or custom
// inferencer may publish no row for an object, or one shorter than its
// candidate list; missing mass reads as zero instead of panicking the
// handler.
func supportOf(res *infer.Result, oid int) map[string]float64 {
	conf := res.ConfidenceAt(oid)
	values := res.Rows.Index().ViewAt(oid).CI.Values
	out := make(map[string]float64, len(values))
	for i, v := range values {
		c := 0.0
		if i < len(conf) {
			c = conf[i]
		}
		out[v] = c
	}
	return out
}

// normalize scales xs into a distribution in place; all-zero rows become
// uniform (the same convention as internal/infer).
func normalize(xs []float64) {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	if s <= 0 {
		if len(xs) == 0 {
			return
		}
		u := 1.0 / float64(len(xs))
		for i := range xs {
			xs[i] = u
		}
		return
	}
	for i := range xs {
		xs[i] /= s
	}
}
