package multitruth

import (
	"repro/internal/data"
)

// LFCMT is the multi-truth variant of LFC (Raykar et al., JMLR 2010),
// referred to as LFC-MT in the paper's Table 5: each (object, value) pair
// is an independent binary labelling task; each provider has a latent
// sensitivity/specificity pair estimated by EM; pairs with posterior > 0.5
// are output as truths.
type LFCMT struct {
	MaxIter int // default 30
}

// Name implements Discoverer.
func (LFCMT) Name() string { return "LFC-MT" }

// Discover implements Discoverer.
func (l LFCMT) Discover(idx *data.Index) map[string][]string {
	if l.MaxIter == 0 {
		l.MaxIter = 30
	}
	type pairObs struct {
		o    string
		v    int
		prov []string
		pos  []bool
	}
	var pairs []pairObs
	for _, o := range idx.Objects {
		ov := idx.View(o)
		providers, claims := claimersOf(idx, ov, true)
		for v := 0; v < ov.CI.NumValues(); v++ {
			po := pairObs{o: o, v: v}
			for pi, p := range providers {
				po.prov = append(po.prov, p)
				po.pos = append(po.pos, claims[pi][v])
			}
			pairs = append(pairs, po)
		}
	}
	// Posterior truth probability per pair; provider sensitivity (se) and
	// specificity (sp).
	post := make([]float64, len(pairs))
	for i, p := range pairs {
		// Init: fraction of positive observations.
		pos := 0
		for _, b := range p.pos {
			if b {
				pos++
			}
		}
		if len(p.pos) > 0 {
			post[i] = float64(pos) / float64(len(p.pos))
		} else {
			post[i] = 0.5
		}
	}
	se := map[string]float64{}
	sp := map[string]float64{}
	for iter := 0; iter < l.MaxIter; iter++ {
		// M-step: per-provider sensitivity/specificity with Beta(2,2)
		// smoothing.
		seNum, seDen := map[string]float64{}, map[string]float64{}
		spNum, spDen := map[string]float64{}, map[string]float64{}
		for i, p := range pairs {
			for j, prov := range p.prov {
				if p.pos[j] {
					seNum[prov] += post[i]
					spDen[prov] += 1 - post[i]
				} else {
					spNum[prov] += 1 - post[i]
					seDen[prov] += post[i]
				}
			}
		}
		for prov := range seNum {
			se[prov] = (seNum[prov] + 1) / (seNum[prov] + seDen[prov] + 2)
		}
		for prov := range spNum {
			sp[prov] = (spNum[prov] + 1) / (spNum[prov] + spDen[prov] + 2)
		}
		// E-step.
		delta := 0.0
		for i, p := range pairs {
			l1, l0 := 0.3, 0.7 // prior P(true)=0.3: most candidate values are false
			for j, prov := range p.prov {
				s, ok := se[prov]
				if !ok {
					s = 0.6
				}
				t, ok := sp[prov]
				if !ok {
					t = 0.8
				}
				if p.pos[j] {
					l1 *= s
					l0 *= 1 - t
				} else {
					l1 *= 1 - s
					l0 *= t
				}
				if l1+l0 < 1e-100 {
					l1 *= 1e100
					l0 *= 1e100
				}
			}
			np := 0.5
			if l1+l0 > 0 {
				np = l1 / (l1 + l0)
			}
			if d := np - post[i]; d > delta || -d > delta {
				if d < 0 {
					d = -d
				}
				delta = d
			}
			post[i] = np
		}
		if delta < 1e-6 {
			break
		}
	}
	out := map[string][]string{}
	bestP := map[string]float64{}
	bestV := map[string]string{}
	for i, p := range pairs {
		val := idx.View(p.o).CI.Values[p.v]
		if post[i] > 0.5 {
			out[p.o] = append(out[p.o], val)
		}
		if post[i] >= bestP[p.o] {
			bestP[p.o] = post[i]
			bestV[p.o] = val
		}
	}
	for _, o := range idx.Objects {
		if len(out[o]) == 0 && bestV[o] != "" {
			out[o] = []string{bestV[o]}
		}
	}
	return out
}
