package infer

import (
	"repro/internal/data"
)

// LCA implements GuessLCA from "Latent Credibility Analysis" (Pasternack &
// Roth, WWW 2013) — the variant the paper selects as the strongest of the
// seven LCA models. Each provider is honest with probability θ_p: an honest
// assertion is the truth; otherwise the provider guesses from a guess
// distribution g_o(·) (the empirical claim popularity). EM over θ and the
// per-object confidences.
//
//	P(claim c | truth v) = θ_p·I(c=v) + (1-θ_p)·g_o(c)
type LCA struct {
	MaxIter int // default 50
}

// Name implements Inferencer.
func (LCA) Name() string { return "LCA" }

// Infer implements Inferencer.
func (l LCA) Infer(idx *data.Index) *Result {
	if l.MaxIter == 0 {
		l.MaxIter = 50
	}
	res, tab := newResult(idx)
	theta := map[provider]float64{}
	// Guess distributions: claim popularity with Laplace smoothing.
	guess := make([][]float64, len(idx.Views))
	for oid, ov := range idx.Views {
		g := make([]float64, ov.CI.NumValues())
		for i := range g {
			g[i] = float64(ov.ValueCount[i]) + 1
		}
		for _, cl := range ov.WorkerClaims {
			g[cl.Val]++
		}
		normalize(g)
		guess[oid] = g
		copy(tab.Row(oid), g)
		for _, cl := range claimsOf(idx, oid) {
			theta[cl.p] = 0.7
		}
	}
	for iter := 0; iter < l.MaxIter; iter++ {
		// E-step for truths.
		maxDelta := 0.0
		for oid := range idx.Views {
			conf := tab.Row(oid)
			g := guess[oid]
			post := make([]float64, len(conf))
			copy(post, conf)
			for _, cl := range claimsOf(idx, oid) {
				th := theta[cl.p]
				for v := range post {
					p := (1 - th) * g[cl.c]
					if v == cl.c {
						p += th
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
		// E+M step for θ: posterior probability each claim was "honest".
		hon := map[provider]float64{}
		cnt := map[provider]int{}
		for oid := range idx.Views {
			conf := tab.Row(oid)
			g := guess[oid]
			for _, cl := range claimsOf(idx, oid) {
				th := theta[cl.p]
				// P(honest, claim) = θ·μ_c ; P(guess, claim) = (1-θ)·g_c.
				ph := th * conf[cl.c]
				pg := (1 - th) * g[cl.c]
				if ph+pg > 0 {
					hon[cl.p] += ph / (ph + pg)
				}
				cnt[cl.p]++
			}
		}
		for p := range theta {
			if cnt[p] > 0 {
				// Beta(2,2)-smoothed MAP.
				theta[p] = (hon[p] + 1) / (float64(cnt[p]) + 2)
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

// rescale guards a running product against underflow.
func rescale(xs []float64) {
	mx := 0.0
	for _, x := range xs {
		if x > mx {
			mx = x
		}
	}
	if mx > 0 && mx < 1e-100 {
		for i := range xs {
			xs[i] /= mx
		}
	}
}
