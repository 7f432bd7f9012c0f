// Package eval implements the paper's quality measures: Accuracy,
// GenAccuracy and AvgDistance for single-truth algorithms (Section 5),
// precision/recall/F1 over the ancestor closure for multi-truth algorithms
// (Section 5.7), and MAE / relative error for numeric data (Section 5.8).
package eval

import (
	"math"

	"repro/internal/data"
)

// Scores bundles the three hierarchical single-truth measures.
type Scores struct {
	Accuracy    float64
	GenAccuracy float64
	AvgDistance float64
	N           int // number of evaluated objects
}

// adjustGold implements the paper's gold-standard fallback: if the gold
// value to is not among the candidate values Vo, the most specific candidate
// ancestor of to is used as the effective gold. Returns ok=false when no
// candidate is the gold or an ancestor of it (the object still counts, with
// the raw gold used for distance).
func adjustGold(ds *data.Dataset, idx *data.Index, o, gold string) string {
	ov := idx.View(o)
	if ov == nil {
		return gold
	}
	if _, in := ov.CI.Pos(gold); in {
		return gold
	}
	if ds.H == nil || !ds.H.Contains(gold) {
		return gold
	}
	best := ""
	bestDepth := -1
	for _, v := range ov.CI.Values {
		if ds.H.IsAncestor(v, gold) && ds.H.Depth(v) > bestDepth {
			best, bestDepth = v, ds.H.Depth(v)
		}
	}
	if best != "" {
		return best
	}
	return gold
}

// Evaluate scores an estimated truth assignment against the dataset's gold
// standard. Objects without gold are skipped. est maps object -> value.
func Evaluate(ds *data.Dataset, idx *data.Index, est map[string]string) Scores {
	var sc Scores
	var distSum float64
	for o, gold := range ds.Truth {
		v, ok := est[o]
		if !ok {
			continue
		}
		g := adjustGold(ds, idx, o, gold)
		sc.N++
		if v == g {
			sc.Accuracy++
			sc.GenAccuracy++
		} else if ds.H != nil && ds.H.IsAncestor(v, g) {
			sc.GenAccuracy++
		}
		if ds.H != nil && ds.H.Contains(v) && ds.H.Contains(g) {
			distSum += float64(ds.H.Distance(v, g))
		} else if v != g {
			// Out-of-tree estimate or gold: count as the worst observed
			// granularity (height of tree) so missing values are penalized.
			if ds.H != nil {
				distSum += float64(ds.H.Height())
			} else {
				distSum++
			}
		}
	}
	if sc.N > 0 {
		sc.Accuracy /= float64(sc.N)
		sc.GenAccuracy /= float64(sc.N)
		sc.AvgDistance = distSum / float64(sc.N)
	}
	return sc
}

// PRF holds precision / recall / F1.
type PRF struct {
	Precision float64
	Recall    float64
	F1        float64
}

// TruthClosure expands a single gold value to its multi-truth set: the value
// itself plus all its proper ancestors below the root (Section 5.7: "we
// treat the ancestors of v and v itself as the multi-truths of v").
func TruthClosure(ds *data.Dataset, v string) map[string]bool {
	out := map[string]bool{v: true}
	if ds.H != nil && ds.H.Contains(v) {
		for _, a := range ds.H.Ancestors(v) {
			out[a] = true
		}
	}
	return out
}

// EvaluateMulti computes micro-averaged precision/recall/F1 of predicted
// value sets against the ancestor-closed gold sets. When idx is non-nil the
// gold set is restricted to values that appear among the object's candidate
// values: no candidate-bound algorithm can output an ancestor nobody
// claimed, so unclaimed closure levels would measure data coverage rather
// than algorithm quality. (The paper's crawled datasets cover most closure
// levels, which is how DART reaches recall ≈ 0.99 in its Table 5.)
func EvaluateMulti(ds *data.Dataset, idx *data.Index, pred map[string][]string) PRF {
	var tp, fp, fn float64
	for o, gold := range ds.Truth {
		gs := TruthClosure(ds, gold)
		if idx != nil {
			if ov := idx.View(o); ov != nil {
				reachable := map[string]bool{}
				for g := range gs {
					if _, in := ov.CI.Pos(g); in {
						reachable[g] = true
					}
				}
				if len(reachable) > 0 {
					gs = reachable
				}
			}
		}
		ps := pred[o]
		seen := map[string]bool{}
		for _, p := range ps {
			if seen[p] {
				continue
			}
			seen[p] = true
			if gs[p] {
				tp++
			} else {
				fp++
			}
		}
		for g := range gs {
			if !seen[g] {
				fn++
			}
		}
	}
	var out PRF
	if tp+fp > 0 {
		out.Precision = tp / (tp + fp)
	}
	if tp+fn > 0 {
		out.Recall = tp / (tp + fn)
	}
	if out.Precision+out.Recall > 0 {
		out.F1 = 2 * out.Precision * out.Recall / (out.Precision + out.Recall)
	}
	return out
}

// NumericScores bundles the numeric-data measures of Table 6.
type NumericScores struct {
	MAE float64 // mean absolute error
	RE  float64 // mean relative error |est-truth|/|truth|
	N   int
}

// EvaluateNumeric scores numeric estimates against numeric golds; objects
// missing from est are skipped.
func EvaluateNumeric(gold, est map[string]float64) NumericScores {
	var sc NumericScores
	for o, g := range gold {
		e, ok := est[o]
		if !ok || math.IsNaN(e) {
			continue
		}
		sc.N++
		sc.MAE += math.Abs(e - g)
		if g != 0 {
			sc.RE += math.Abs(e-g) / math.Abs(g)
		} else {
			sc.RE += math.Abs(e - g)
		}
	}
	if sc.N > 0 {
		sc.MAE /= float64(sc.N)
		sc.RE /= float64(sc.N)
	}
	return sc
}

// SourceQuality returns the actual per-source accuracy and generalized
// accuracy against the gold standard — the quantities plotted in the
// paper's Figure 1 and Figure 5.
func SourceQuality(ds *data.Dataset) map[string]PairAcc {
	out := map[string]PairAcc{}
	counts := map[string]*PairAcc{}
	for _, r := range ds.Records {
		gold, ok := ds.Truth[r.Object]
		if !ok {
			continue
		}
		pa := counts[r.Source]
		if pa == nil {
			pa = &PairAcc{}
			counts[r.Source] = pa
		}
		pa.Claims++
		if r.Value == gold {
			pa.Accuracy++
			pa.GenAccuracy++
		} else if ds.H != nil && ds.H.IsAncestor(r.Value, gold) {
			pa.GenAccuracy++
		}
	}
	for s, pa := range counts {
		if pa.Claims > 0 {
			pa.Accuracy /= float64(pa.Claims)
			pa.GenAccuracy /= float64(pa.Claims)
		}
		out[s] = *pa
	}
	return out
}

// PairAcc is a source's exact and generalized accuracy with its claim count.
type PairAcc struct {
	Accuracy    float64
	GenAccuracy float64
	Claims      int
}
