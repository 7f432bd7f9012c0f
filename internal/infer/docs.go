package infer

import (
	"repro/internal/data"
)

// DOCS implements the domain-aware worker model of Zheng, Li & Cheng
// (PVLDB 2016): every provider has a per-domain quality q_{p,d} — the
// probability of answering an object of domain d correctly — estimated by
// EM with Beta smoothing. Wrong answers are uniform over the remaining
// candidates. Objects without a domain label share the "~" domain.
//
// Like every baseline in this package, DOCS walks claims through claimsOf,
// which reads the index's dense ID-sorted claim slices (see
// data.ObjectView) and resolves participant IDs back to names — baselines
// pay one name materialization per claim, while the TDH hot path in
// internal/core stays entirely on dense IDs.
//
// DOCS proper derives domains from a knowledge base; here domains come from
// Dataset.Domains (the synthetic generators label each object with the
// top-level ancestor of its true value, standing in for the KB).
type DOCS struct {
	MaxIter int // default 50
	// BetaA/BetaB smooth the per-domain quality (default 4, 2: mildly
	// optimistic prior as in the DOCS paper's defaults).
	BetaA, BetaB float64
}

// Name implements Inferencer.
func (DOCS) Name() string { return "DOCS" }

// domainsOf lists each object's domain by object ID.
func domainsOf(idx *data.Index) []string {
	doms := make([]string, len(idx.Objects))
	for oid, o := range idx.Objects {
		doms[oid] = "~"
		if d, ok := idx.DS.Domains[o]; ok && d != "" {
			doms[oid] = d
		}
	}
	return doms
}

// Infer implements Inferencer.
func (dc DOCS) Infer(idx *data.Index) *Result {
	if dc.MaxIter == 0 {
		dc.MaxIter = 50
	}
	if dc.BetaA == 0 {
		dc.BetaA = 4
	}
	if dc.BetaB == 0 {
		dc.BetaB = 2
	}
	res, tab := newResult(idx)
	doms := domainsOf(idx)
	q := map[provDomain]float64{}
	prior := dc.BetaA / (dc.BetaA + dc.BetaB)
	for oid := range idx.Views {
		conf := tab.Row(oid)
		for _, cl := range claimsOf(idx, oid) {
			conf[cl.c]++
			q[provDomain{cl.p, doms[oid]}] = prior
		}
		normalize(conf)
	}
	for iter := 0; iter < dc.MaxIter; iter++ {
		maxDelta := 0.0
		for oid, ov := range idx.Views {
			conf := tab.Row(oid)
			dom := doms[oid]
			nV := float64(ov.CI.NumValues())
			post := make([]float64, len(conf))
			copy(post, conf)
			for _, cl := range claimsOf(idx, oid) {
				qq := q[provDomain{cl.p, dom}]
				var wrong float64
				if nV > 1 {
					wrong = (1 - qq) / (nV - 1)
				}
				for v := range post {
					p := wrong
					if v == cl.c {
						p = qq
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
		// Quality update per (provider, domain) with Beta smoothing.
		hit := map[provDomain]float64{}
		cnt := map[provDomain]int{}
		for oid := range idx.Views {
			conf := tab.Row(oid)
			for _, cl := range claimsOf(idx, oid) {
				k := provDomain{cl.p, doms[oid]}
				hit[k] += conf[cl.c]
				cnt[k]++
			}
		}
		for k := range q {
			q[k] = (hit[k] + dc.BetaA - 1) / (float64(cnt[k]) + dc.BetaA + dc.BetaB - 2)
		}
		if maxDelta < 1e-6 {
			break
		}
	}
	// Trust: claim-weighted mean quality across domains.
	sum := map[provider]float64{}
	cnt := map[provider]int{}
	for oid := range idx.Views {
		for _, cl := range claimsOf(idx, oid) {
			sum[cl.p] += q[provDomain{cl.p, doms[oid]}]
			cnt[cl.p]++
		}
	}
	//tdh:orderok setTrust writes one keyed entry per provider; iteration order is immaterial
	for p := range sum {
		if cnt[p] > 0 {
			res.setTrust(p, sum[p]/float64(cnt[p]))
		}
	}
	res.Model = &DOCSState{Q: flattenQ(q), Prior: prior}
	res.finalize(tab)
	return res
}

// DOCSState exposes the fitted per-domain qualities for the MB assigner.
type DOCSState struct {
	// Q maps provider name (source or worker) -> domain -> quality.
	Q     map[string]map[string]float64
	Prior float64
}

// Quality returns q_{w,d} with the prior as fallback.
func (s *DOCSState) Quality(name, domain string) float64 {
	if m, ok := s.Q[name]; ok {
		if v, ok := m[domain]; ok {
			return v
		}
	}
	return s.Prior
}

type provDomain struct {
	p provider
	d string
}

func flattenQ(q map[provDomain]float64) map[string]map[string]float64 {
	out := map[string]map[string]float64{}
	for k, v := range q {
		m := out[k.p.name]
		if m == nil {
			m = map[string]float64{}
			out[k.p.name] = m
		}
		m[k.d] = v
	}
	return out
}
