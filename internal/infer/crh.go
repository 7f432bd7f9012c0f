package infer

import (
	"math"

	"repro/internal/data"
)

// CRH implements the "Conflict Resolution on Heterogeneous data" framework
// (Li et al., SIGMOD 2014) restricted to the categorical loss: iterate
//
//	truth_o  = argmin_v Σ_p w_p · loss(v, claim_p)     (weighted vote)
//	w_p      = -log( Σ_o loss_p / Σ_p' Σ_o loss_p' )   (source weights)
//
// with the 0-1 loss. Confidences are normalized weighted-vote shares.
type CRH struct {
	MaxIter int // default 20
}

// Name implements Inferencer.
func (CRH) Name() string { return "CRH" }

// Infer implements Inferencer.
func (c CRH) Infer(idx *data.Index) *Result {
	if c.MaxIter == 0 {
		c.MaxIter = 20
	}
	res, tab := newResult(idx)
	w := map[provider]float64{}
	for oid := range idx.Views {
		for _, cl := range claimsOf(idx, oid) {
			w[cl.p] = 1
		}
	}
	prevTruth := make([]int, len(idx.Views))
	for iter := 0; iter < c.MaxIter; iter++ {
		// Truth step: weighted vote.
		changed := false
		for oid := range idx.Views {
			conf := tab.Row(oid)
			for i := range conf {
				conf[i] = 0
			}
			for _, cl := range claimsOf(idx, oid) {
				conf[cl.c] += w[cl.p]
			}
			normalize(conf)
			best, bestP := 0, -1.0
			for i, p := range conf {
				if p > bestP {
					best, bestP = i, p
				}
			}
			if prevTruth[oid] != best {
				changed = true
				prevTruth[oid] = best
			}
		}
		// Weight step: 0-1 losses against the current truths.
		loss := map[provider]float64{}
		cnt := map[provider]int{}
		var totalLoss float64
		for oid := range idx.Views {
			for _, cl := range claimsOf(idx, oid) {
				cnt[cl.p]++
				if cl.c != prevTruth[oid] {
					loss[cl.p]++
					totalLoss++
				}
			}
		}
		if totalLoss == 0 {
			totalLoss = 1
		}
		for p := range w {
			// Normalized loss share with smoothing so perfect providers do
			// not get infinite weight.
			share := (loss[p] + 0.5) / (totalLoss + 0.5*float64(len(w)))
			w[p] = -math.Log(share)
			if w[p] < 1e-6 {
				w[p] = 1e-6
			}
		}
		if !changed && iter > 0 {
			break
		}
	}
	// Report trust as normalized accuracy of claims vs final truths.
	acc := map[provider][2]float64{}
	for oid := range idx.Views {
		for _, cl := range claimsOf(idx, oid) {
			a := acc[cl.p]
			a[1]++
			if cl.c == prevTruth[oid] {
				a[0]++
			}
			acc[cl.p] = a
		}
	}
	//tdh:orderok setTrust writes one keyed entry per provider; iteration order is immaterial
	for p, a := range acc {
		if a[1] > 0 {
			res.setTrust(p, a[0]/a[1])
		}
	}
	res.finalize(tab)
	return res
}
