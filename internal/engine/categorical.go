package engine

import (
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/eval"
	"repro/internal/infer"
)

// categorical adapts any single-truth infer.Inferencer to the Engine
// interface. When the inferencer is TDH its fitted *core.Model powers the
// incremental answer fold (Section 4.2's one-step EM) and open-world growth
// (core.Model.Grow); every other inferencer is refit-only: its answers and
// its growth wait for the next full refit, and its last fit keeps being
// served over the index it was fitted on until then. The extraction is pinned bit-for-bit by the server's 1e-9
// equivalence suites.
type categorical struct {
	inf infer.Inferencer
}

// NewCategorical wraps a single-truth inferencer as an Engine. A TDH fit
// picks its own goroutine count from the index's size (core.Run).
func NewCategorical(inf infer.Inferencer) Engine {
	return &categorical{inf: inf}
}

func (e *categorical) Model() TruthModel { return Categorical }
func (e *categorical) Name() string      { return e.inf.Name() }

// catState is a categorical round: the inference result, whose Model — for
// TDH — is the model the state folds and grows. A folded or grown state's
// result is a view over the model (infer.ViewOf). Every state serves the
// truths map materialised from its rows on first use, fitted or not, so
// /truths and the quality score keep one shape across folds.
type catState struct {
	res *infer.Result

	truthsOnce sync.Once
	truths     map[string]string
}

func (st *catState) Res() *infer.Result { return st.res }

func (st *catState) Truths() any { return st.truthMap() }

// truthMap is the name-keyed truths (infer.Result.TruthMap: objects without
// a truth are absent), built from the result's rows at most once.
//
//tdh:mutator fills the lazily materialised truths exactly once behind sync.Once; no reader can observe a partial fill
func (st *catState) truthMap() map[string]string {
	st.truthsOnce.Do(func() { st.truths = st.res.TruthMap() })
	return st.truths
}

func (st *catState) Confidence(oid int) any { return supportOf(st.res, oid) }

func (st *catState) Quality(ds *data.Dataset, idx *data.Index) map[string]float64 {
	if len(ds.Truth) == 0 {
		return nil
	}
	sc := eval.Evaluate(ds, idx, st.truthMap())
	return map[string]float64{
		"accuracy":     sc.Accuracy,
		"gen_accuracy": sc.GenAccuracy,
		"avg_distance": sc.AvgDistance,
	}
}

func (e *categorical) Fit(idx *data.Index) State {
	return &catState{res: e.inf.Infer(idx)}
}

func (e *categorical) ApplyAnswers(st State, idx *data.Index, answers []data.Answer) (State, bool) {
	return applyAnswers(e, st, idx, answers)
}

// NewEpoch implements EpochFolder: TDH's incremental EM step is object-
// local (core.Model.ApplyAnswerAt writes only the answer's object rows and
// reads immutable shared state) and folds into a clone of the published
// model. Opening the epoch copies the model's page tables, nothing per
// object. Non-TDH states have no incremental path and report ok=false.
func (e *categorical) NewEpoch(st State, idx *data.Index) (Epoch, bool) {
	cs := st.(*catState)
	m, ok := cs.res.Model.(*core.Model)
	if !ok {
		return nil, false
	}
	return &catEpoch{m: m.Clone(), prev: cs.res}, true
}

// catEpoch folds answers into one cloned TDH model.
type catEpoch struct {
	m    *core.Model
	prev *infer.Result // the state being folded over: its trust maps carry forward
	touchedIDs
}

// Fold resolves each answer's names against the model's own index — the one
// its rows are shaped by — and folds it by dense IDs; ApplyAnswerAt copies
// the page it writes the first time the clone writes it.
func (ep *catEpoch) Fold(answers []data.Answer) {
	idx := ep.m.Idx
	for i := range answers {
		a := &answers[i]
		oid, ok := idx.ObjectID(a.Object)
		if !ok {
			continue // object unknown to the fitted model; refit will pick it up
		}
		ans, ok := idx.ViewAt(oid).CI.Pos(a.Value)
		if !ok {
			continue // not a candidate under the model's index
		}
		wid, ok := idx.WorkerID(a.Worker)
		if !ok {
			wid = -1 // unseen worker: folds at the prior-mean ψ
		}
		ep.m.ApplyAnswerAt(oid, wid, ans)
		ep.ids = append(ep.ids, oid)
	}
}

// Seal publishes the folded model as it is: nothing is copied or rebuilt.
func (ep *catEpoch) Seal() State {
	return &catState{res: infer.ViewOf(ep.m, ep.prev)}
}

func (e *categorical) Grow(st State, idx *data.Index, touched []int) (State, bool) {
	cs := st.(*catState)
	m, ok := cs.res.Model.(*core.Model)
	if !ok {
		return st, false
	}
	return &catState{res: infer.ViewOf(m.Grow(idx, touched), cs.res)}, true
}

func (e *categorical) ValidateAnswer(ov *data.ObjectView, a *data.Answer) error {
	if len(a.Values) > 0 {
		return fmt.Errorf("categorical campaign takes a single value, not a value set")
	}
	if a.Num != nil {
		return fmt.Errorf("categorical campaign takes a candidate value, not a number")
	}
	if _, ok := ov.CI.Pos(a.Value); !ok {
		return fmt.Errorf("value %q is not a candidate for %q", a.Value, a.Object)
	}
	return nil
}
