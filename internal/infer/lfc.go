package infer

import (
	"sort"

	"repro/internal/data"
)

// LFC implements "Learning From Crowds" (Raykar et al., JMLR 2010) adapted
// to truth discovery as in the survey of Zheng et al. (PVLDB 2017): every
// provider has a confusion model π_p(claim | truth) estimated by EM. With
// open-ended value spaces the confusion matrix is sparse: counts are kept
// only for (truth, claim) pairs actually encountered, smoothed with a
// Dirichlet pseudo-count over each object's candidate set. This is why LFC
// is the slowest baseline on datasets with many values (paper, Figure 12).
type LFC struct {
	MaxIter int     // default 30
	Lambda  float64 // Dirichlet smoothing pseudo-count, default 1
}

// Name implements Inferencer.
func (LFC) Name() string { return "LFC" }

// Infer implements Inferencer.
func (l LFC) Infer(idx *data.Index) *Result {
	if l.MaxIter == 0 {
		l.MaxIter = 30
	}
	if l.Lambda == 0 {
		l.Lambda = 1
	}
	res, tab := newResult(idx)
	// Init with vote shares.
	for oid := range idx.Views {
		conf := tab.Row(oid)
		for _, cl := range claimsOf(idx, oid) {
			conf[cl.c]++
		}
		normalize(conf)
	}
	// Sparse confusion: cm[p][truthValue][claimValue] = expected count;
	// rowTotal[p][truthValue] = row sum.
	type row = map[string]float64
	cm := map[provider]map[string]row{}
	rowTotal := map[provider]row{}

	for iter := 0; iter < l.MaxIter; iter++ {
		// M-step over confusion counts (uses current confidences).
		cm = map[provider]map[string]row{}
		rowTotal = map[provider]row{}
		for oid, ov := range idx.Views {
			conf := tab.Row(oid)
			for _, cl := range claimsOf(idx, oid) {
				pm := cm[cl.p]
				if pm == nil {
					pm = map[string]row{}
					cm[cl.p] = pm
					rowTotal[cl.p] = row{}
				}
				claimVal := ov.CI.Values[cl.c]
				for ti, tv := range ov.CI.Values {
					r := pm[tv]
					if r == nil {
						r = row{}
						pm[tv] = r
					}
					r[claimVal] += conf[ti]
					rowTotal[cl.p][tv] += conf[ti]
				}
			}
		}
		// E-step: recompute confidences from the confusion model.
		maxDelta := 0.0
		for oid, ov := range idx.Views {
			conf := tab.Row(oid)
			nV := float64(ov.CI.NumValues())
			post := make([]float64, len(conf))
			for ti := range post {
				post[ti] = 1
			}
			for _, cl := range claimsOf(idx, oid) {
				claimVal := ov.CI.Values[cl.c]
				pm := cm[cl.p]
				rt := rowTotal[cl.p]
				for ti, tv := range ov.CI.Values {
					var c float64
					if pm != nil && pm[tv] != nil {
						c = pm[tv][claimVal]
					}
					var tot float64
					if rt != nil {
						tot = rt[tv]
					}
					p := (c + l.Lambda) / (tot + l.Lambda*nV)
					if p < floorP {
						p = floorP
					}
					post[ti] *= p
				}
				// Rescale to dodge underflow on objects with many claims.
				mx := 0.0
				for _, v := range post {
					if v > mx {
						mx = v
					}
				}
				if mx > 0 && mx < 1e-100 {
					for i := range post {
						post[i] /= mx
					}
				}
			}
			normalize(post)
			for i := range conf {
				d := post[i] - conf[i]
				if d < 0 {
					d = -d
				}
				if d > maxDelta {
					maxDelta = d
				}
				conf[i] = post[i]
			}
		}
		if maxDelta < 1e-6 {
			break
		}
	}
	// Trust = expected diagonal mass of the confusion model.
	//tdh:orderok per-provider totals are loop-local and setTrust is keyed; providers are independent
	for p, pm := range cm {
		var diag, tot float64
		// Sum the diagonal in sorted truth order: float addition is not
		// associative, so map order would leak into the published bits.
		tvs := make([]string, 0, len(pm))
		for tv := range pm {
			tvs = append(tvs, tv)
		}
		sort.Strings(tvs)
		for _, tv := range tvs {
			diag += pm[tv][tv]
			tot += rowTotal[p][tv]
		}
		if tot > 0 {
			res.setTrust(p, diag/tot)
		}
	}
	res.finalize(tab)
	return res
}
