package multitruth

import (
	"math"

	"repro/internal/data"
)

// DART implements the domain-aware multi-truth discovery of Lin & Chen
// (PVLDB 2018): each source has a per-domain expertise estimated from how
// often its claims are believed within the domain, and each (object, value)
// pair accumulates confidence from the expertise of the sources claiming it
// versus those that implicitly vote against it (claimed the object but not
// the value). Values whose confidence crosses Threshold are output as
// truths. Domains come from Dataset.Domains ("~" when absent).
type DART struct {
	MaxIter   int     // default 30
	Threshold float64 // output threshold on value confidence, default 0.15
	// RecallBias tilts the negative evidence weight; DART's design accepts
	// many values per object (its recall is near 1 in Table 5 while
	// precision collapses). Default 0.1: very weak negative evidence.
	RecallBias float64
}

// Name implements Discoverer.
func (DART) Name() string { return "DART" }

// Discover implements Discoverer.
func (d DART) Discover(idx *data.Index) map[string][]string {
	if d.MaxIter == 0 {
		d.MaxIter = 30
	}
	if d.Threshold == 0 {
		d.Threshold = 0.15
	}
	if d.RecallBias == 0 {
		d.RecallBias = 0.1
	}
	domOf := func(o string) string {
		if dm, ok := idx.DS.Domains[o]; ok && dm != "" {
			return dm
		}
		return "~"
	}
	type sd struct{ s, d string }
	expertise := map[sd]float64{}
	// value confidence per object, over the ancestor-closed claim matrix.
	conf := map[string][]float64{}
	type objData struct {
		providers []string
		claims    [][]bool
	}
	od := map[string]*objData{}
	for _, o := range idx.Objects {
		ov := idx.View(o)
		providers, claims := claimersOf(idx, ov, true)
		od[o] = &objData{providers, claims}
		conf[o] = make([]float64, ov.CI.NumValues())
		for i := range conf[o] {
			conf[o][i] = 0.5
		}
		for _, p := range providers {
			expertise[sd{p, domOf(o)}] = 0.7
		}
	}
	for iter := 0; iter < d.MaxIter; iter++ {
		// Confidence step: log-odds accumulation of expertise votes.
		delta := 0.0
		for _, o := range idx.Objects {
			dom := domOf(o)
			dat := od[o]
			cf := conf[o]
			for v := range cf {
				score := 0.0
				for pi, p := range dat.providers {
					e := expertise[sd{p, dom}]
					e = math.Min(math.Max(e, 0.05), 0.95)
					if dat.claims[pi][v] {
						score += math.Log(e / (1 - e))
					} else {
						score -= d.RecallBias * math.Log(e/(1-e))
					}
				}
				nv := 1 / (1 + math.Exp(-score))
				if dd := math.Abs(nv - cf[v]); dd > delta {
					delta = dd
				}
				cf[v] = nv
			}
		}
		// Expertise step: mean confidence of claimed values per domain.
		sum := map[sd]float64{}
		cnt := map[sd]float64{}
		for _, o := range idx.Objects {
			dom := domOf(o)
			dat := od[o]
			cf := conf[o]
			for pi, p := range dat.providers {
				for v := range cf {
					if dat.claims[pi][v] {
						sum[sd{p, dom}] += cf[v]
						cnt[sd{p, dom}]++
					}
				}
			}
		}
		for k := range expertise {
			if cnt[k] > 0 {
				expertise[k] = (sum[k] + 1) / (cnt[k] + 2)
			}
		}
		if delta < 1e-6 {
			break
		}
	}
	out := map[string][]string{}
	for _, o := range idx.Objects {
		ov := idx.View(o)
		cf := conf[o]
		bestV, bestC := "", -1.0
		for v, c := range cf {
			if c >= d.Threshold {
				out[o] = append(out[o], ov.CI.Values[v])
			}
			if c > bestC {
				bestC, bestV = c, ov.CI.Values[v]
			}
		}
		if len(out[o]) == 0 {
			out[o] = []string{bestV}
		}
	}
	return out
}
