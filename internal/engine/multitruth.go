package engine

import (
	"fmt"

	"repro/internal/data"
	"repro/internal/eval"
	"repro/internal/infer"
	"repro/internal/multitruth"
)

// multiEngine runs a multitruth.Discoverer (LTM / DART / LFC-MT) as the
// campaign's truth model: truths are value SETS, and workers answer with
// sets too (the typed Values payload, which the index turns into one claim
// per value for the same worker). Discovery is a full pass — LTM's Gibbs
// chain has no incremental step — so the engine is refit-only: NewEpoch and
// Grow report ok=false, the old sets keep being served over the old index,
// and answers and growth alike wait for the refit the policy triggers — the
// contract the categorical non-TDH baselines have too.
type multiEngine struct {
	disc multitruth.Discoverer
}

// NewMultiTruth wraps a multi-truth discoverer as an Engine.
func NewMultiTruth(disc multitruth.Discoverer) Engine {
	return &multiEngine{disc: disc}
}

func (e *multiEngine) Model() TruthModel { return MultiTruth }
func (e *multiEngine) Name() string      { return e.disc.Name() }

// multiState is one discovery round: the per-object truth sets plus the
// assigner-facing result, whose rows are claim support and whose truth is
// each set's first value.
type multiState struct {
	sets map[string][]string
	res  *infer.Result
}

func (st *multiState) Res() *infer.Result { return st.res }

func (st *multiState) Truths() any { return st.sets }

// Confidence reports the discovered set alongside the per-candidate claim
// support the assigners rank by.
func (st *multiState) Confidence(oid int) any {
	out := map[string]any{"support": supportOf(st.res, oid)}
	if set, ok := st.sets[st.res.Rows.Index().Objects[oid]]; ok {
		out["set"] = set
	}
	return out
}

func (st *multiState) Quality(ds *data.Dataset, idx *data.Index) map[string]float64 {
	if len(ds.Truth) == 0 {
		return nil
	}
	sc := eval.EvaluateMulti(ds, idx, st.sets)
	return map[string]float64{"precision": sc.Precision, "recall": sc.Recall, "f1": sc.F1}
}

//tdh:mutator fills a fresh Table for the next state; nothing aliases it until the state is returned
func (e *multiEngine) Fit(idx *data.Index) State {
	sets := e.disc.Discover(idx)

	// The assigner-facing confidence row is each candidate's claim share —
	// the fraction of the object's providers (sources and workers alike)
	// claiming it — so ME and QASCA rank the most contested objects first.
	tab := infer.NewTable(idx)
	for oid, ov := range idx.Views {
		row := tab.Row(oid)
		for _, c := range ov.SourceClaims {
			row[c.Val]++
		}
		for _, c := range ov.WorkerClaims {
			row[c.Val]++
		}
		normalize(row)
		if set := sets[ov.Object]; len(set) > 0 {
			if pos, ok := ov.CI.Pos(set[0]); ok {
				tab.SetTruth(oid, pos)
			}
		}
	}
	res := &infer.Result{Rows: tab, SourceTrust: map[string]float64{}, WorkerTrust: map[string]float64{}}
	return &multiState{sets: sets, res: res}
}

// NewEpoch reports no incremental path: discovery reruns at the next
// policy-triggered Fit, and the published sets stay as they are meanwhile.
func (e *multiEngine) NewEpoch(st State, idx *data.Index) (Epoch, bool) { return nil, false }

func (e *multiEngine) ApplyAnswers(st State, idx *data.Index, answers []data.Answer) (State, bool) {
	return applyAnswers(e, st, idx, answers)
}

func (e *multiEngine) Grow(st State, idx *data.Index, touched []int) (State, bool) {
	return st, false
}

// ValidateAnswer accepts either a plain single value or a Values set; every
// element must be one of the object's candidates. The answer is
// canonicalized in place: Values is deduplicated (first-seen order, with a
// non-empty Value merged in front), and Value becomes the set's first
// element so single-truth consumers see exactly one claim per worker.
func (e *multiEngine) ValidateAnswer(ov *data.ObjectView, a *data.Answer) error {
	if a.Num != nil {
		return fmt.Errorf("multi-truth campaign takes candidate values, not a number")
	}
	if len(a.Values) == 0 {
		if _, ok := ov.CI.Pos(a.Value); !ok {
			return fmt.Errorf("value %q is not a candidate for %q", a.Value, a.Object)
		}
		return nil
	}
	merged := make([]string, 0, len(a.Values)+1)
	seen := make(map[string]bool, len(a.Values)+1)
	if a.Value != "" {
		merged = append(merged, a.Value)
		seen[a.Value] = true
	}
	for _, v := range a.Values {
		if seen[v] {
			continue
		}
		seen[v] = true
		merged = append(merged, v)
	}
	for _, v := range merged {
		if _, ok := ov.CI.Pos(v); !ok {
			return fmt.Errorf("value %q is not a candidate for %q", v, a.Object)
		}
	}
	a.Values = merged
	a.Value = merged[0]
	return nil
}
