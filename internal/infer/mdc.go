package infer

import (
	"repro/internal/data"
)

// MDC adapts the crowdsourced medical-diagnosis model of Li et al.
// (WSDM 2017) to generic truth discovery. The cited model combines
// per-provider reliability with correlations between candidate diagnoses;
// its transferable core — implemented here and documented as a
// simplification in DESIGN.md — is an EM over
//
//	P(claim c | truth v) = r_p·I(c=v) + (1-r_p)·sim_o(c, v)
//
// where sim_o(c,v) is a popularity-weighted similarity between candidate
// values: related (here: hierarchically related) wrong answers are likelier
// than unrelated ones, mirroring MDC's diagnosis-correlation matrix.
type MDC struct {
	MaxIter int // default 40
}

// Name implements Inferencer.
func (MDC) Name() string { return "MDC" }

// Infer implements Inferencer.
func (m MDC) Infer(idx *data.Index) *Result {
	if m.MaxIter == 0 {
		m.MaxIter = 40
	}
	res, tab := newResult(idx)
	rel := map[provider]float64{}
	// Pre-compute per-object similarity kernels sim[c][v].
	sims := make([][][]float64, len(idx.Views))
	for oid, ov := range idx.Views {
		n := ov.CI.NumValues()
		sim := make([][]float64, n)
		for c := 0; c < n; c++ {
			sim[c] = make([]float64, n)
			for v := 0; v < n; v++ {
				if c == v {
					continue
				}
				// Hierarchy kinship: ancestor/descendant pairs are close
				// (0.5), everything else follows popularity.
				w := float64(ov.ValueCount[c]) + 0.5
				if ov.CI.IsAncestorOf(c, v) || ov.CI.IsAncestorOf(v, c) {
					w *= 3
				}
				sim[c][v] = w
			}
		}
		// Normalize each column v over claims c≠v.
		for v := 0; v < n; v++ {
			s := 0.0
			for c := 0; c < n; c++ {
				s += sim[c][v]
			}
			if s > 0 {
				for c := 0; c < n; c++ {
					sim[c][v] /= s
				}
			}
		}
		sims[oid] = sim
		conf := tab.Row(oid)
		for _, cl := range claimsOf(idx, oid) {
			conf[cl.c]++
			rel[cl.p] = 0.7
		}
		normalize(conf)
	}
	for iter := 0; iter < m.MaxIter; iter++ {
		maxDelta := 0.0
		for oid := range idx.Views {
			conf := tab.Row(oid)
			sim := sims[oid]
			post := make([]float64, len(conf))
			copy(post, conf)
			for _, cl := range claimsOf(idx, oid) {
				r := rel[cl.p]
				for v := range post {
					p := (1 - r) * sim[cl.c][v]
					if v == cl.c {
						p += r
					}
					if p < floorP {
						p = floorP
					}
					post[v] *= p
				}
				rescale(post)
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
		// Reliability update: expected fraction of exact hits.
		hit := map[provider]float64{}
		cnt := map[provider]int{}
		for oid := range idx.Views {
			conf := tab.Row(oid)
			for _, cl := range claimsOf(idx, oid) {
				hit[cl.p] += conf[cl.c]
				cnt[cl.p]++
			}
		}
		for p := range rel {
			if cnt[p] > 0 {
				rel[p] = (hit[p] + 1) / (float64(cnt[p]) + 2)
			}
		}
		if maxDelta < 1e-6 {
			break
		}
	}
	//tdh:orderok setTrust writes one keyed entry per provider; iteration order is immaterial
	for p, r := range rel {
		res.setTrust(p, r)
	}
	res.finalize(tab)
	return res
}
