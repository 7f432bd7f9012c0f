package assign

import (
	"sort"

	"repro/internal/infer"
)

// MB implements the task assigner of DOCS (Zheng, Li & Cheng, PVLDB 2016):
// for each worker it selects the objects whose expected confidence-entropy
// decrease is largest under the worker's *domain-specific* quality, i.e.
//
//	score(w,o) = H(μ_o) - Σ_{v'} P(v'|q_{w,d}, μ_o) · H(μ_o | v')
//
// where the answer model is the DOCS one: correct with probability
// q_{w,d(o)}, otherwise uniform over the remaining candidates. The prior
// entropies H(μ_o) and the confidence rows come precomputed from the
// shared Plan; only the worker-quality-dependent expectation runs per call.
type MB struct{}

// Name implements Assigner.
func (MB) Name() string { return "MB" }

// Assign implements Assigner. It expects ctx.Res.Model to be an
// *infer.DOCSState (MB is DOCS-specific, as in the paper); without one it
// falls back to the scalar worker trust.
func (MB) Assign(ctx *Context) map[string][]string {
	p := ctx.plan(entropies)
	st, _ := ctx.Res.Model.(*infer.DOCSState)
	out := make(map[string][]string, len(ctx.Workers))
	wids := workerIDs(ctx.Idx, ctx.Workers)
	// Each worker's assignment is optimized independently, as in the
	// original system where assignment happens when a worker requests
	// tasks: two workers may receive the same hot object in one round.
	for widx, w := range ctx.Workers {
		type scored struct {
			oid int32
			s   float64
		}
		var cand []scored
		var post []float64
		for oid := range ctx.Idx.Objects {
			if ctx.Idx.HasAnsweredAt(wids[widx], oid) {
				continue
			}
			mu := p.Row(oid)
			n := len(mu)
			if n < 2 {
				continue
			}
			var q float64
			if st != nil {
				dom := "~"
				if d, ok := ctx.Idx.DS.Domains[ctx.Idx.Objects[oid]]; ok && d != "" {
					dom = d
				}
				q = st.Quality(w, dom)
			} else {
				q = workerTrustOf(ctx.Res, w, 0.7)
			}
			wrong := (1 - q) / float64(n-1)
			h0 := p.Ent(oid)
			expH := 0.0
			if cap(post) < n {
				post = make([]float64, n)
			}
			post = post[:n]
			for ans := 0; ans < n; ans++ {
				// P(answer = ans) under the DOCS model.
				pAns := 0.0
				for tr := 0; tr < n; tr++ {
					l := wrong
					if tr == ans {
						l = q
					}
					pAns += l * mu[tr]
				}
				if pAns <= 0 {
					continue
				}
				z := 0.0
				for tr := 0; tr < n; tr++ {
					l := wrong
					if tr == ans {
						l = q
					}
					post[tr] = l * mu[tr]
					z += post[tr]
				}
				for tr := range post {
					post[tr] /= z
				}
				expH += pAns * entropy(post)
			}
			cand = append(cand, scored{int32(oid), h0 - expH})
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
