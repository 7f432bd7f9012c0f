package infer

import (
	"math"

	"repro/internal/data"
)

// PopAccu implements POPACCU (Dong, Saha, Srivastava, PVLDB 2012): the
// ACCU model with the uniform false-value assumption replaced by the
// empirical popularity of false values. The vote count of value v becomes
//
//	C(v) = Σ_{p claims v} ln(A(p)/(1-A(p))) - Σ_{p claims v} ln(ρ_o(v))
//
// where ρ_o(v) is v's share among the claims for o other than the presumed
// truth; popular wrong values get weaker votes.
type PopAccu struct {
	MaxIter int // default 20
}

// Name implements Inferencer.
func (PopAccu) Name() string { return "POPACCU" }

// Infer implements Inferencer.
func (pa PopAccu) Infer(idx *data.Index) *Result {
	if pa.MaxIter == 0 {
		pa.MaxIter = 20
	}
	res, tab := newResult(idx)
	trust := map[provider]float64{}
	for oid := range idx.Views {
		for _, cl := range claimsOf(idx, oid) {
			trust[cl.p] = accuInitTrust
		}
	}
	for iter := 0; iter < pa.MaxIter; iter++ {
		maxDelta := 0.0
		for oid, ov := range idx.Views {
			conf := tab.Row(oid)
			total := 0
			for _, c := range ov.ValueCount {
				total += c
			}
			score := make([]float64, len(conf))
			// Popularity of each candidate among all claims; Laplace
			// smoothing keeps unseen (worker-only) values non-zero.
			for _, cl := range claimsOf(idx, oid) {
				t := clampTrust(trust[cl.p])
				rho := (float64(ov.ValueCount[cl.c]) + 1) / (float64(total) + float64(len(conf)))
				score[cl.c] += math.Log(t/(1-t)) - math.Log(rho)
			}
			mx := math.Inf(-1)
			for _, s := range score {
				if s > mx {
					mx = s
				}
			}
			z := 0.0
			for i, s := range score {
				score[i] = math.Exp(s - mx)
				z += score[i]
			}
			for i := range conf {
				v := score[i] / z
				if d := math.Abs(v - conf[i]); d > maxDelta {
					maxDelta = d
				}
				conf[i] = v
			}
		}
		sum := map[provider]float64{}
		cnt := map[provider]int{}
		for oid := range idx.Views {
			conf := tab.Row(oid)
			for _, cl := range claimsOf(idx, oid) {
				sum[cl.p] += conf[cl.c]
				cnt[cl.p]++
			}
		}
		for p := range trust {
			if cnt[p] > 0 {
				trust[p] = clampTrust(sum[p] / float64(cnt[p]))
			}
		}
		if maxDelta < 1e-6 {
			break
		}
	}
	//tdh:orderok setTrust writes one keyed entry per provider; iteration order is immaterial
	for p, t := range trust {
		res.setTrust(p, t)
	}
	res.finalize(tab)
	return res
}
