package infer

import (
	"math"

	"repro/internal/data"
)

// Sums implements the Sums (Hubs-and-Authorities) fixpoint of Pasternack &
// Roth (COLING 2010) — the flat algorithm that ASUMS [Beretta et al. 2016]
// adapts to hierarchies. Belief flows from sources to their claimed values
// and back, with max-normalization per iteration; no hierarchy awareness.
// Included because it isolates how much of ASUMS's behaviour comes from the
// hierarchy adaptation versus the underlying fixpoint.
type Sums struct {
	MaxIter int // default 50
}

// Name implements Inferencer.
func (Sums) Name() string { return "SUMS" }

// Infer implements Inferencer.
func (su Sums) Infer(idx *data.Index) *Result {
	if su.MaxIter == 0 {
		su.MaxIter = 50
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
	for iter := 0; iter < su.MaxIter; iter++ {
		maxB := 0.0
		for oid := range idx.Views {
			b := belief.Row(oid)
			for i := range b {
				b[i] = 0
			}
			for _, cl := range claimsOf(idx, oid) {
				b[cl.c] += trust[cl.p]
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
		// t(p) = Σ_{claims} B(claimed value), normalized by max (the
		// original Sums fixpoint; trust scales with claim volume).
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
	copy(tab.conf, belief.conf)
	for oid := range idx.Views {
		normalize(tab.Row(oid))
	}
	//tdh:orderok setTrust writes one keyed entry per provider; iteration order is immaterial
	for p, t := range trust {
		res.setTrust(p, t)
	}
	res.finalize(tab)
	return res
}
