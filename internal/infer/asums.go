package infer

import (
	"math"

	"repro/internal/data"
)

// ASUMS implements the hierarchy-adapted Sums of Beretta et al. (WIMS 2016):
// the Sums/Hubs-and-Authorities fixpoint of Pasternack & Roth (COLING 2010)
// where a claim also supports every candidate ancestor of its value, so
// generalized claims and specific claims reinforce each other. Truth
// selection needs a granularity threshold (the drawback the paper points
// out): among candidates whose belief reaches Threshold × max-belief, the
// deepest one wins.
type ASUMS struct {
	MaxIter   int     // default 50
	Threshold float64 // fraction of max belief, default 0.8
}

// Name implements Inferencer.
func (ASUMS) Name() string { return "ASUMS" }

// Infer implements Inferencer.
func (a ASUMS) Infer(idx *data.Index) *Result {
	if a.MaxIter == 0 {
		a.MaxIter = 50
	}
	if a.Threshold == 0 {
		a.Threshold = 0.8
	}
	res, tab := newResult(idx)
	trust := map[provider]float64{}
	counts := map[provider]int{}
	for oid := range idx.Views {
		for _, cl := range claimsOf(idx, oid) {
			trust[cl.p] = 1
			counts[cl.p]++
		}
	}
	belief := NewTable(idx) // working beliefs, shaped like the confidences
	for iter := 0; iter < a.MaxIter; iter++ {
		// Belief step: B(v) = Σ_{claims c of v or of a descendant of v} t(p).
		maxB := 0.0
		for oid, ov := range idx.Views {
			b := belief.Row(oid)
			for i := range b {
				b[i] = 0
			}
			for _, cl := range claimsOf(idx, oid) {
				t := trust[cl.p]
				b[cl.c] += t
				for _, anc := range ov.CI.Anc(cl.c) {
					b[anc] += t // hierarchical support
				}
			}
			for _, x := range b {
				if x > maxB {
					maxB = x
				}
			}
		}
		if maxB == 0 {
			maxB = 1
		}
		for i := range belief.conf {
			belief.conf[i] /= maxB
		}
		// Trust step: t(p) = Σ_{claims} B(claimed value), normalized by
		// max — the original Sums fixpoint, which ASUMS inherits. The sum
		// makes trust scale with the source's claim count; that is exactly
		// why Figure 5 shows ASUMS underestimating the reliability of the
		// small sources 4, 5 and 7.
		newTrust := map[provider]float64{}
		for oid := range idx.Views {
			b := belief.Row(oid)
			for _, cl := range claimsOf(idx, oid) {
				newTrust[cl.p] += b[cl.c]
			}
		}
		maxT := 0.0
		for _, t := range newTrust {
			if t > maxT {
				maxT = t
			}
		}
		if maxT == 0 {
			maxT = 1
		}
		delta := 0.0
		for p := range trust {
			nt := newTrust[p] / maxT
			if d := math.Abs(nt - trust[p]); d > delta {
				delta = d
			}
			trust[p] = nt
		}
		if delta < 1e-6 && iter > 0 {
			break
		}
	}
	// Confidences = normalized beliefs; truth = deepest candidate whose
	// belief reaches the threshold share of the max.
	for oid, ov := range idx.Views {
		b := belief.Row(oid)
		conf := tab.Row(oid)
		copy(conf, b)
		normalize(conf)
		mx := 0.0
		for _, x := range b {
			if x > mx {
				mx = x
			}
		}
		bi, best, bestDepth := -1, "", -1
		for i, x := range b {
			if x+1e-15 >= a.Threshold*mx {
				v := ov.CI.Values[i]
				d := 0
				if idx.DS.H != nil {
					d = idx.DS.H.Depth(v)
				}
				if d > bestDepth || (d == bestDepth && (best == "" || v < best)) {
					bi, best, bestDepth = i, v, d
				}
			}
		}
		tab.SetTruth(oid, bi)
	}
	res.Truths = tab.truthMap()
	// Per-provider normalized trust, scaled to the average belief of its
	// claims (the t(s) plotted in Figure 5).
	//tdh:orderok setTrust writes one keyed entry per provider; iteration order is immaterial
	for p, t := range trust {
		if counts[p] > 0 {
			res.setTrust(p, t)
		}
	}
	return res
}
