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
// (core.Model.Grow); every other inferencer publishes stale confidences
// between full refits, exactly as the server behaved before engines
// existed. The extraction is pinned bit-for-bit by the server's 1e-9
// equivalence suites.
type categorical struct {
	inf infer.Inferencer
}

// NewCategorical wraps a single-truth inferencer as an Engine. A non-zero
// cfg.Workers (-1 included: all cores) configures TDH's parallel E-step —
// the wiring that used to live as an infer.TDH type-assertion special case
// in the campaign layer; 0 keeps the inferencer's own setting.
func NewCategorical(inf infer.Inferencer, cfg Config) Engine {
	if tdh, ok := inf.(infer.TDH); ok && cfg.Workers != 0 {
		tdh.Opt.Workers = cfg.Workers
		inf = tdh
	}
	return &categorical{inf: inf}
}

func (e *categorical) Model() TruthModel { return Categorical }
func (e *categorical) Name() string      { return e.inf.Name() }

// catState is a categorical round: the inference result plus, for TDH, the
// model behind it. A fitted state's result carries the inferencer's maps; a
// folded or grown one is a view over model (infer.ViewOf), whose truths map
// is materialised on first use.
type catState struct {
	res   *infer.Result
	model *core.Model // nil for non-TDH inferencers

	truthsOnce sync.Once
	truths     map[string]string
}

func (st *catState) Res() *infer.Result { return st.res }

func (st *catState) Truths() any { return st.truthMap() }

// truthMap is the name-keyed truths: the inferencer's own map after a fit,
// built from the sealed model at most once after a fold.
//
//tdh:mutator fills the lazily materialised truths exactly once behind sync.Once; no reader can observe a partial fill
func (st *catState) truthMap() map[string]string {
	if st.res.Truths != nil {
		return st.res.Truths
	}
	st.truthsOnce.Do(func() { st.truths = st.model.Truths() })
	return st.truths
}

func (st *catState) Confidence(ov *data.ObjectView) any { return supportOf(st.res, ov) }

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
	res := e.inf.Infer(idx)
	m, _ := res.Model.(*core.Model)
	return &catState{res: res, model: m}
}

func (e *categorical) ApplyAnswers(st State, idx *data.Index, answers []data.Answer) (State, bool) {
	return applyAnswers(e, st, idx, answers)
}

// NewEpoch implements EpochFolder: TDH's incremental EM step is object-
// local (core.Model.ApplyAnswerAt writes only the answer's object rows and
// reads immutable shared state), so disjoint-object Fold calls can share
// one cloned model, synchronizing only to take ownership of the pages they
// are about to write. Opening the epoch copies the model's page tables,
// nothing per object. Non-TDH states have no incremental path and report
// ok=false.
func (e *categorical) NewEpoch(st State, idx *data.Index) (Epoch, bool) {
	cs := st.(*catState)
	if cs.model == nil {
		return nil, false
	}
	return &catEpoch{m: cs.model.Clone(), prev: cs.res}, true
}

// catEpoch folds answers into one cloned TDH model. Fold may be called
// concurrently for object-disjoint batches (see NewEpoch).
type catEpoch struct {
	m    *core.Model
	prev *infer.Result // the state being folded over: its trust maps carry forward
	touchedIDs
}

// catFold is one answer resolved to the model's dense IDs.
type catFold struct{ oid, wid, ans int }

// Fold resolves each answer's names once, against the model's own index —
// the one its rows are shaped by — takes ownership of the pages the batch
// writes, and hands dense IDs to the fold kernel. Object-disjoint batches
// may still share a page of 256 objects, and a page must be copied once,
// before anyone writes it: the copy-on-write step runs under the epoch's
// lock, with the touched-ID bookkeeping, and the kernel — which then finds
// every page owned and writes only its own object's elements — outside it.
func (ep *catEpoch) Fold(answers []data.Answer) {
	idx := ep.m.Idx
	folds := make([]catFold, 0, len(answers))
	for i := range answers {
		a := &answers[i]
		oid, ok := idx.ObjectID(a.Object)
		if !ok {
			continue // object unknown to the fitted model; refit will pick it up
		}
		ans, ok := idx.ViewAt(oid).CI.Pos[a.Value]
		if !ok {
			continue // not a candidate under the model's index
		}
		wid, ok := idx.WorkerID(a.Worker)
		if !ok {
			wid = -1 // unseen worker: folds at the prior-mean ψ
		}
		folds = append(folds, catFold{oid, wid, ans})
	}
	ep.mu.Lock()
	for _, f := range folds {
		ep.m.OwnPage(f.oid)
		ep.ids = append(ep.ids, f.oid)
	}
	ep.mu.Unlock()
	for _, f := range folds {
		ep.m.ApplyAnswerAt(f.oid, f.wid, f.ans)
	}
}

// Seal publishes the folded model as it is: nothing is copied or rebuilt.
func (ep *catEpoch) Seal() State {
	return &catState{res: infer.ViewOf(ep.m, ep.prev), model: ep.m}
}

func (e *categorical) Grow(st State, idx *data.Index, touched []int) (State, bool) {
	cs := st.(*catState)
	if cs.model == nil {
		return st, false
	}
	m := cs.model.Grow(idx, touched)
	return &catState{res: infer.ViewOf(m, cs.res), model: m}, true
}

func (e *categorical) ValidateAnswer(ov *data.ObjectView, a *data.Answer) error {
	if len(a.Values) > 0 {
		return fmt.Errorf("categorical campaign takes a single value, not a value set")
	}
	if a.Num != nil {
		return fmt.Errorf("categorical campaign takes a candidate value, not a number")
	}
	if _, ok := ov.CI.Pos[a.Value]; !ok {
		return fmt.Errorf("value %q is not a candidate for %q", a.Value, a.Object)
	}
	return nil
}
