package assign

import (
	"math/rand"
	"sort"

	"repro/internal/core"
)

// sortedWorkers returns the assignment's worker names in sorted order, so
// estimate sums (and the sampler's draw sequence) are deterministic.
func sortedWorkers(assignment map[string][]string) []string {
	ws := make([]string, 0, len(assignment))
	for w := range assignment {
		ws = append(ws, w)
	}
	sort.Strings(ws)
	return ws
}

// EstimateImprovement reports EAI's own expected accuracy gain for an
// assignment: the sum of EAI(w,o) over the issued tasks, each eaiAt score
// divided by |O| per Eq. 14. Figure 7 compares this estimate to the realized
// gain.
func (e EAI) EstimateImprovement(ctx *Context, assignment map[string][]string) float64 {
	m, ok := ctx.Res.Model.(*core.Model)
	if !ok {
		return 0
	}
	n := float64(len(ctx.Idx.Objects))
	total := 0.0
	for _, w := range sortedWorkers(assignment) {
		objs := assignment[w]
		tab := core.NewWorkerTab(m.PsiOf(w))
		for _, o := range objs {
			if oid, ok := m.Idx.ObjectID(o); ok {
				score, _ := eaiAt(m, oid, &tab)
				total += score / n
			}
		}
	}
	return total
}

// EstimateImprovement reports QASCA's expected gain: the sampled-answer
// confidence jump of each issued task, scaled by 1/|O|. Because the
// estimate ignores how many claims each object already has, it
// overestimates — the bias Figure 7 exhibits.
func (q QASCA) EstimateImprovement(ctx *Context, assignment map[string][]string) float64 {
	rng := rand.New(rand.NewSource(ctx.Seed + 1))
	n := float64(len(ctx.Idx.Objects))
	total := 0.0
	// Iterating the assignment map directly would both sum in random order
	// and hand the seeded sampler its draws in random order, making the
	// "deterministic" estimate differ run to run.
	for _, w := range sortedWorkers(assignment) {
		objs := assignment[w]
		t := qascaWorkerQuality(ctx, w)
		for _, o := range objs {
			oid, ok := ctx.Idx.ObjectID(o)
			if !ok {
				continue
			}
			mu := ctx.Res.ConfidenceAt(oid)
			if len(mu) == 0 {
				continue
			}
			nv := float64(len(mu))
			lik := func(ans, tr int) float64 {
				if ans == tr {
					return t
				}
				if nv <= 1 {
					return 1e-12
				}
				return (1 - t) / (nv - 1)
			}
			sampled := sampleAnswer(rng, func(v int) float64 {
				p := 0.0
				for tr := range mu {
					p += lik(v, tr) * mu[tr]
				}
				return p
			}, len(mu))
			z, best := 0.0, 0.0
			upd := make([]float64, len(mu))
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
			total += (best - maxOf(mu)) / n
		}
	}
	return total
}
