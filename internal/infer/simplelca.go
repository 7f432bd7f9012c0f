package infer

import (
	"repro/internal/data"
)

// SimpleLCA is the basic Latent Credibility Analysis model (Pasternack &
// Roth, WWW 2013): a provider is honest with probability θ_p and asserts
// the truth; otherwise the claim is drawn uniformly from the remaining
// candidates. GuessLCA (the paper's pick, implemented as LCA in this
// package) replaces the uniform error with the empirical guess
// distribution; SimpleLCA is kept as the ablation of that choice.
type SimpleLCA struct {
	MaxIter int // default 50
}

// Name implements Inferencer.
func (SimpleLCA) Name() string { return "SIMPLELCA" }

// Infer implements Inferencer.
func (l SimpleLCA) Infer(idx *data.Index) *Result {
	if l.MaxIter == 0 {
		l.MaxIter = 50
	}
	res, tab := newResult(idx)
	theta := map[provider]float64{}
	for oid := range idx.Views {
		conf := tab.Row(oid)
		for _, cl := range claimsOf(idx, oid) {
			conf[cl.c]++
			theta[cl.p] = 0.7
		}
		normalize(conf)
	}
	for iter := 0; iter < l.MaxIter; iter++ {
		maxDelta := 0.0
		for oid, ov := range idx.Views {
			conf := tab.Row(oid)
			n := float64(ov.CI.NumValues())
			post := make([]float64, len(conf))
			copy(post, conf)
			for _, cl := range claimsOf(idx, oid) {
				th := theta[cl.p]
				var wrong float64
				if n > 1 {
					wrong = (1 - th) / (n - 1)
				}
				for v := range post {
					p := wrong
					if v == cl.c {
						p = th
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
		hit := map[provider]float64{}
		cnt := map[provider]int{}
		for oid := range idx.Views {
			conf := tab.Row(oid)
			for _, cl := range claimsOf(idx, oid) {
				hit[cl.p] += conf[cl.c]
				cnt[cl.p]++
			}
		}
		for p := range theta {
			if cnt[p] > 0 {
				theta[p] = (hit[p] + 1) / (float64(cnt[p]) + 2)
			}
		}
		if maxDelta < 1e-6 {
			break
		}
	}
	//tdh:orderok setTrust writes one keyed entry per provider; iteration order is immaterial
	for p, t := range theta {
		res.setTrust(p, t)
	}
	res.finalize(tab)
	return res
}
