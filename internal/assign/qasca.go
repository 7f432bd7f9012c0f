package assign

import (
	"math/rand"
	"sort"

	"repro/internal/core"
)

// qascaWorkerQuality reads the scalar worker quality QASCA uses: ψ_{w,1}
// under a TDH model, Result.WorkerTrust otherwise, 0.7 prior fallback.
func qascaWorkerQuality(ctx *Context, w string) float64 {
	if m, ok := ctx.Res.Model.(*core.Model); ok {
		return m.PsiOf(w)[0] + m.PsiOf(w)[1]/2 // exact plus half the generalized mass
	}
	return workerTrustOf(ctx.Res, w, 0.7)
}

// QASCA implements the quality-aware assigner of Zheng et al. (SIGMOD
// 2015) as characterized in Section 4.1 of the paper: for each candidate
// task it estimates the new confidence distribution from a *sampled*
// answer,
//
//	μ_{o,v|w} ∝ μ_{o,v} · P(v_o^w = v' | v*_o = v)
//
// and scores the task by the increase of the top confidence. Unlike EAI it
// neither takes the expectation over answers nor accounts for how many
// claims the object already has — the two drawbacks the paper fixes.
//
// QASCA runs on top of any probabilistic inference result: with a TDH
// model it uses the full worker answer model; otherwise it falls back to a
// scalar worker-accuracy answer model built from Result.WorkerTrust. The
// confidence rows come from the shared Plan; the per-worker sampling, each
// row's max and the ranking happen per call.
type QASCA struct{}

// Name implements Assigner.
func (QASCA) Name() string { return "QASCA" }

// Assign implements Assigner.
func (q QASCA) Assign(ctx *Context) map[string][]string {
	p := ctx.plan(0)
	rng := rand.New(rand.NewSource(ctx.Seed))
	out := make(map[string][]string, len(ctx.Workers))
	wids := workerIDs(ctx.Idx, ctx.Workers)
	// Each worker's assignment is optimized independently, as in the
	// original system where assignment happens when a worker requests
	// tasks: two workers may receive the same hot object in one round.
	for widx, w := range ctx.Workers {
		// QASCA models a worker by a single scalar quality (its SIGMOD'15
		// worker model), regardless of which inference algorithm produced
		// the confidences. With TDH underneath the scalar is ψ_{w,1}.
		t := qascaWorkerQuality(ctx, w)
		type scored struct {
			oid int32
			s   float64
		}
		var cand []scored
		var upd []float64
		for oid := range ctx.Idx.Objects {
			if ctx.Idx.HasAnsweredAt(wids[widx], oid) {
				continue
			}
			mu := p.Row(oid)
			if len(mu) == 0 {
				continue
			}
			n := float64(len(mu))
			lik := func(ans, tr int) float64 {
				if ans == tr {
					return t
				}
				if n <= 1 {
					return 1e-12
				}
				return (1 - t) / (n - 1)
			}
			sampled := sampleAnswer(rng, func(v int) float64 {
				p := 0.0
				for tr := range mu {
					p += lik(v, tr) * mu[tr]
				}
				return p
			}, len(mu))
			// μ|sampled ∝ μ_v · P(sampled | v).
			best := 0.0
			z := 0.0
			if cap(upd) < len(mu) {
				upd = make([]float64, len(mu))
			}
			upd = upd[:len(mu)]
			for v := range mu {
				upd[v] = mu[v] * lik(sampled, v)
				z += upd[v]
			}
			if z > 0 {
				for v := range upd {
					if p := upd[v] / z; p > best {
						best = p
					}
				}
			}
			cand = append(cand, scored{int32(oid), best - maxOf(mu)})
		}
		sort.Slice(cand, func(i, j int) bool {
			if cand[i].s != cand[j].s {
				return cand[i].s > cand[j].s
			}
			return cand[i].oid < cand[j].oid
		})
		for i := 0; i < len(cand) && len(out[w]) < ctx.K; i++ {
			out[w] = append(out[w], ctx.Idx.Objects[cand[i].oid])
		}
	}
	return out
}

// sampleAnswer draws an index from the (unnormalized) likelihood f.
func sampleAnswer(rng *rand.Rand, f func(int) float64, n int) int {
	ps := make([]float64, n)
	z := 0.0
	for i := range ps {
		ps[i] = f(i)
		z += ps[i]
	}
	if z <= 0 {
		return rng.Intn(n)
	}
	u := rng.Float64() * z
	for i, p := range ps {
		u -= p
		if u <= 0 {
			return i
		}
	}
	return n - 1
}
